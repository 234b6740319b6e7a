(** Three-valued interpretations — the results of evaluating a program.

    An interpretation records which ground atoms of the considered base are
    true and which are undefined; everything else (including atoms outside
    the grounded base, which no derivation can ever reach) is false. For
    the two-valued semantics (inflationary, stratified) the undefined set
    is empty.

    An interpretation is a view over its grounding: it holds the
    grounding's atom table, the number of atoms the table held when it
    was made, and two bitsets over those atom ids. It copies no fact. An
    atom interned later, at an id at or past that count, is outside the
    view and reads false, and the ordered readers list only the atoms
    below it. So an interpretation that {!Run.Live} returned stays valid,
    on every reader, after later batches grow the shared table and
    retract atoms: interned atoms keep their ids and their facts.

    The ordered readers share one listing per predicate, that predicate's
    ids sorted by argument, built by the first read that needs it and
    reached through a table keyed by predicate. Building them is
    domain-safe: two domains reading at once may both build a listing,
    and either result is the same. *)

open Recalg_kernel

type t

val make : Propgm.t -> true_:Bitset.t -> undef:Bitset.t -> t
(** The view of [true_] and [undef] over the grounding's atoms. Takes
    ownership of both bitsets: the caller must not change them
    afterwards. Raises [Invalid_argument] unless both have exactly
    {!Propgm.n_atoms} bits. *)

val of_true : Propgm.t -> Bitset.t -> t
(** Two-valued: everything not true is false. Takes ownership of the
    bitset, as {!make} does. *)

val holds : t -> string -> Value.t list -> Tvl.t
(** The atom's id in the table, then two bit tests. *)

val holds_fact : t -> Propgm.fact -> Tvl.t

val true_tuples : t -> string -> Value.t list list
(** Sorted, duplicate-free tuples for a predicate. *)

val undef_tuples : t -> string -> Value.t list list
val false_tuples : t -> string -> Value.t list list
(** Restricted to the grounded base (the atoms some derivation mentions). *)

val preds : t -> string list
(** The predicates of the grounded base, sorted. *)

val to_edb : t -> Edb.t
(** The true facts as an extensional database. *)

val count_true : t -> int
val count_undef : t -> int
val is_total : t -> bool
val equal : t -> t -> bool
(** Same true set and same undefined set, compared as fact sets (the two
    interpretations may come from different groundings). *)

val pp : Format.formatter -> t -> unit

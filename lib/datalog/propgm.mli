(** Propositional (ground) programs.

    The grounder instantiates a safe program over the derivable envelope of
    facts and interns every ground atom into a dense id; the semantics
    engines then work on this propositional form. *)

open Recalg_kernel

type fact = string * Value.t list

val fact_equal : fact -> fact -> bool

val fact_hash : fact -> int
(** Folds the arguments' memoized {!Value.hash} values into the predicate
    name's hash — O(arity), never a deep term walk. *)

type rule = { head : int; pos : int array; neg : int array }

type t = {
  atoms : fact Interner.t;
  rules : rule array;
}

val n_atoms : t -> int
val fact_of_id : t -> int -> fact
val id_of_fact : t -> fact -> int option

val pp_fact : Format.formatter -> fact -> unit
(** [p(v1, ..., vn)], or the bare [p] of a nullary fact. *)

val pp : Format.formatter -> t -> unit

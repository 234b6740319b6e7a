(** Semi-naive (delta) evaluation support for the fixpoint engines.

    The naive [IFP] iteration [s' = s ∪ exp(s)] re-joins the whole
    accumulated set on every pass. When the fixpoint variable occurs
    delta-linearly ({!Positivity.delta_linear}), the new tuples of a pass
    can be derived from the {e delta} of the previous pass alone, using
    the distributivity of the algebra operators over set deltas:

    - [Δ(a ∪ b) = Δa ∪ Δb]
    - [Δ(a × b) = Δa × b ∪ a × Δb] (covers [Δa × Δb])
    - [Δ(σ_p a) = σ_p (Δa)], [Δ(map_f a) = map_f (Δa)]
    - [Δ(a - b) = Δa - b] when the variable does not occur in [b]

    Where the variable occurs non-linearly — under a difference's right
    argument, inside a nested [Ifp] body, or in a [Call] argument — the
    derivation falls back to full re-evaluation of that subexpression.
    The fallback keeps the derivation {e sound for arbitrary bodies} of
    the inflationary iteration: the derived set always contains every
    tuple new to this pass and is always contained in the current full
    value, so semi-naive and naive iterations visit byte-identical
    states and stop on the same round (fuel consumption matches too). *)

open Recalg_kernel

val eligible : string list -> Expr.t -> bool
(** Delta derivation pays off: at least one tracked name occurs free in a
    delta-linear position. *)

(** The accumulated set of a semi-naive loop, merged once.

    A round adds the tuples it derived; only the ones not yet present
    form the round's delta, found by a hash lookup per derived tuple, so
    a round costs [O(|derived|)] rather than a merge over the whole
    accumulator. The deltas are interned as they arrive. The accumulated
    set itself is merged and interned once, by {!Value.union_all}, when
    {!value} is next read — by an evaluation that needs the current
    value, or when the loop ends. Not domain-safe: a loop owns its
    accumulators. *)
module Acc : sig
  type t

  val create : unit -> t
  (** The empty set. *)

  val extend : t -> Value.t -> Value.t
  (** [extend a v] adds the set [v] and returns the delta [v \ a] (before
      the addition), an interned set. *)

  val replace : t -> Value.t -> Value.t * bool
  (** [replace a v] makes [v] the accumulated set. It returns [v \ a]
      and whether the set changed — a full recomputation's step, which
      need not contain the old set. *)

  val value : t -> Value.t
  (** The canonical accumulated set. *)

  val cardinal : t -> int
end

val derive :
  builtins:Builtins.t ->
  ?advice:Advice.t ->
  eval:(Expr.t -> Value.t) ->
  ?eval_diff_right:(Expr.t -> Value.t) ->
  deltas:(string * Value.t) list ->
  Expr.t ->
  Value.t
(** [derive ~builtins ~eval ~deltas e] is the delta of [e] given the
    per-name deltas of the changed relations: a set containing every
    tuple of the current value of [e] that was not in its previous value,
    and contained in the current value. [eval] must evaluate a
    subexpression to its full {e current} value (same environment as the
    enclosing fixpoint pass). [eval_diff_right] (default [eval]) is used
    for right arguments of [Diff] — the three-valued engine passes the
    opposite bound there, mirroring [low = a.low - b.high].

    [Select (p, Product _)] nodes take the path {!Advice.fused_join}
    chooses under [advice] (default {!Advice.none}): the delta of a
    fused node joins each factor's delta against the current value of
    the other factor, so delta rounds stay [O(|Δ| + |probe| + |out|)]
    instead of materialising products. *)

val touches : string list -> Expr.t -> bool
(** Some tracked name occurs free in the expression. *)

val is_empty : Value.t -> bool

(** The delta calculus of the algebra engines: one rule per operator.

    {b Changes.} A change is a Z-set with weights [±1] — the relation
    annotated in the ring ℤ, restricted to set-level changes — held as
    two disjoint canonical sets. For a value that goes from [old] to
    [now], a change [{ plus; minus }] meets the contract

    - [now ∖ old ⊆ plus ⊆ now];
    - [old ∖ now ⊆ minus], and [minus ∩ now = ∅].

    So [now = (old ∪ plus) ∖ minus] ({!apply}), and [old ⊆ now ∪ minus]:
    every rule below reads only its operands' changes and {e current}
    values, never an old value. A semi-naive loop's accumulator only
    grows, so its change has [minus = ∅] ({!grown}), and the loop reads
    only the [plus] side of what it derives: [acc ∪ plus = acc ∪ body(acc)]
    whatever the body, as [body(old) ⊆ acc].

    {b Rules.} Writing [Δa⁺] and [Δa⁻] for the sides of [a]'s change and
    [a], [b] for current values:

    - union: [plus = Δa⁺ ∪ Δb⁺], [minus = (Δa⁻ ∖ b) ∪ (Δb⁻ ∖ a)];
    - difference: [plus = (Δa⁺ ∖ b) ∪ (Δb⁻ ∩ a)], [minus = Δa⁻ ∪ Δb⁺];
    - product and fused join: [plus = Δa⁺ ⋈ b ∪ a ⋈ Δb⁺] and
      [minus = Δa⁻ ⋈ (b ∪ Δb⁻) ∪ (a ∪ Δa⁻) ⋈ Δb⁻];
    - selection filters both sides;
    - [MAP] images [plus], and keeps from the image of [minus] only the
      elements the current value lacks;
    - [MAP] over a fused join is the bilinear rule of the join mapped
      through [f] ({!Join.exec}), over the join's two operands, and its
      [minus] keeps, as the [MAP] rule does, only the images the
      current value lacks: [old ⊆ now ∪ minus] holds for the pairs and
      so for their images.

    A rule computes only the sides its reader needs ({!need}): a
    difference's [plus] reads its right operand's [minus], so a
    semi-naive round computes a [minus] only under a difference. When
    both [minus] sides are empty, the rules are the insert-only
    distributive laws [Δ(a ∪ b) = Δa ∪ Δb], [Δ(a × b) = Δa × b ∪ a × Δb],
    [Δ(a - b) = Δa - b].

    {b Two bounds.} Three-valued evaluation reads a difference's right
    side at the other bound ([low = a.low - b.high]). {!derive} takes a
    {!bound} for the value it derives and one for the other bound, and
    reads the other one under every difference's right side. A phase
    that holds the other bound fixed passes it no changes; a two-valued
    evaluation passes one bound for both.

    {b Opaque nodes.} An [Ifp] or a [Call] over a changed name is
    re-evaluated (counted as [delta/reeval]): its [plus] is its current
    value. Its [minus] is not known; read as everything outside the
    current value, it makes a difference that needs it take its whole
    current value as its [plus]. *)

open Recalg_kernel

type change = { plus : Value.t; minus : Value.t }

val none : change
(** No change: both sides empty. *)

val grown : Value.t -> change
(** [{ plus; minus = ∅ }]: the change of a value that only grew. *)

val is_none : change -> bool

val apply : Value.t -> change -> Value.t
(** [apply old c = (old ∪ c.plus) ∖ c.minus]: the current value. *)

(** The sides of a change a reader needs. The sides outside it are left
    empty and must not be read. *)
type need = Plus | Minus | Both

(** {1 Rules}

    Each operand is its current value, forced only where a rule reads
    it, and its change. *)

type operand = Value.t Lazy.t * change

val union : need -> operand -> operand -> change

val diff : need -> operand -> operand -> change
(** [diff need a b]: [b] is read at the other bound — its value and its
    change. *)

val bilinear : (Value.t -> Value.t -> Value.t) -> need -> operand -> operand -> change
(** [bilinear join need a b] for [join] = {!Value.product} or a hash
    join ({!Join.exec}), mapped or not. *)

val select : Builtins.t -> Pred.t -> need -> change -> change

val map : Builtins.t -> Efun.t -> mem:(Value.t -> bool) -> need -> change -> change
(** [mem] tests membership in the [MAP] node's current value. *)

(** {1 Derivation} *)

type bound = {
  value : Expr.t -> Value.t;  (** a subexpression's current value at this bound *)
  changes : (string * change) list;  (** the changed names at this bound *)
}

val derive :
  builtins:Builtins.t -> ?advice:Advice.t -> ?need:need -> ?other:bound -> bound -> Expr.t -> change
(** [derive ~builtins this e] is [e]'s change at the bound [this], given
    the changes of the names in [this.changes], by the rules above.
    [other] (default [this]) is the bound read under a difference's right
    side. [need] defaults to [Plus].

    [Select (p, Product _)] nodes take the path {!Advice.fused_join}
    chooses under [advice] (default {!Advice.none}), so a delta round
    joins each factor's change against the other factor's current value
    without materialising a product; a [Map] over such a node joins
    through its function, without building the pairs.

    Raises [Invalid_argument] when [need] asks for the [minus] side and
    it depends on an [Ifp] or [Call] over a changed name that no
    difference reads. *)

val eligible : string list -> Expr.t -> bool
(** Delta derivation pays off: some tracked name occurs free outside
    every [Ifp] and [Call]. *)

val touches : string list -> Expr.t -> bool
(** Some tracked name occurs free in the expression. *)

val is_empty : Value.t -> bool

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

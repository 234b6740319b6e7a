(** Equi-join planning for [Select (p, Product (a, b))] nodes.

    The paper's relational idioms (composition, transitive closure,
    same-generation) all select on an equality between a function of the
    left component and a function of the right component of a product —
    [sigma_{f(pi1) = g(pi2)}(a x b)]. Evaluating that literally
    materialises the full [O(|a| * |b|)] cross product and then filters.
    This module recognises the shape, extracts the equality keys, and
    evaluates the node as a hash join in [O(|a| + |b| + |out|)] —
    residual conjuncts are applied to each joined pair, and nodes with no
    extractable equi-key fall back to product-then-filter. The idioms
    then map the join: [MAP_f(sigma(a x b))]. The join takes that [f],
    so [out] is the image, not the pairs: with no residual and an [f]
    that reads one side, the node is a semijoin in [O(|a| + |b|)].

    The fused evaluation is {e observably identical} to the unfused one:
    byte-identical result sets (a pair survives the selection iff the
    predicate evaluates to [Some true], which for a conjunction means
    every conjunct is [Some true] — exactly what key agreement plus
    residual checks test), and identical fuel accounting (no evaluator
    spends fuel inside a single algebra operator). *)

(** Which half of a product pair an element function depends on.
    [Left_only g] means [f [x, y] = g x] {e exactly}, including
    definedness (symmetrically [Right_only]); [Either_side g] means [f]
    ignores its input (constants only); [Both_sides] means no such
    factoring exists. *)
type side =
  | Left_only of Efun.t
  | Right_only of Efun.t
  | Either_side of Efun.t
  | Both_sides

val split : Efun.t -> side
(** Factor an element function, as applied to a product pair, through one
    of the components — the rebasing step behind {!plan}, exported for
    the cost-based planner's n-ary generalisation. *)

val compose : Efun.t -> Efun.t -> Efun.t
(** [compose g f] applies [f] first — [Efun.Compose] with the identity
    elided, so rebased keys stay readable in plans and printers. *)

val conjuncts : Pred.t -> Pred.t list
(** Top-level conjuncts of a predicate. A value passes the predicate iff
    it passes every conjunct (strict three-valued [And]), so checking
    them independently — possibly at different plan nodes — is exact. *)

type t = {
  left_key : Efun.t;  (** applied to left elements; [None] drops the element *)
  right_key : Efun.t;  (** applied to right elements; [None] drops the element *)
  residual : Pred.t list;
      (** remaining conjuncts, checked on each joined pair; a pair is kept
          iff every one evaluates to [Some true] *)
}

val plan : Pred.t -> t option
(** [plan p] extracts equi-join keys from the top-level conjunction of
    [p], where [p] is the predicate of a selection applied directly to a
    product. A conjunct [Eq (f, g)] becomes a key pair when [f] factors
    through one product component and [g] through the other (e.g.
    [Eq (Compose (Proj 2, Proj 1), Compose (Proj 1, Proj 2))] joins
    [pi2] of the left against [pi1] of the right). Several key conjuncts
    are combined into a single tuple-valued key. Returns [None] when no
    conjunct is a usable equality — the caller must then fall back to
    product-then-filter. *)

val exec :
  Recalg_kernel.Builtins.t ->
  t ->
  map:Efun.t ->
  Recalg_kernel.Value.t ->
  Recalg_kernel.Value.t ->
  Recalg_kernel.Value.t
(** [exec builtins plan ~map left right] is the join of the two sets
    mapped through [map]: it equals
    [filter_map_set (Efun.apply map) (filter (p = Some true) (product left right))]
    for the planned [p], byte for byte. [map = Efun.Id] is the bare
    join. It indexes [right] by [right_key] and probes with [left_key]
    per left element. With no residual, {!split} [map] picks the path:

    - [Left_only g]: a semijoin. Only [right]'s keys are indexed, and
      [g x] is kept for every left [x] whose key hits; with [g = Id] the
      answer is a filter of [left], with no sort.
    - [Right_only g]: a semijoin the other way. A bucket is imaged
      through [g] on its key's first hit and then dropped, so each right
      element is imaged once.
    - otherwise each joined pair's image is {!Efun.apply_pair}, so only
      images are interned and sorted.

    With residual conjuncts each pair is built, checked and then mapped.
    When observability is on, each call counts [join/exec], [join/build]
    ([|right|]), [join/probe] ([|left|]) and [join/out], the cardinality
    of what it returns, so a summary's [counter_max] reports the peak
    operator output. *)

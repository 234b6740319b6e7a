(** The evaluation path of the algebra engines: planner advice plus the
    reference switches the engine equivalences are checked against.

    {!Rec_eval} (the one evaluator, behind {!Eval} too) and {!Delta} read
    this record, and nothing else, to choose between semi-naive and naive
    fixpoint loops, between fused and unfused joins, and between
    component-ordered and whole-program solving. The cost-based planner
    lives in [recalg.plan], {e above} this library, so the evaluators
    cannot call it directly; it hands them two hooks instead: a
    whole-expression rewrite (join reordering, semijoin reduction,
    predicate pushdown) applied wherever an evaluator inlines an
    expression, and a re-planning hook the fixpoint loops (each [Ifp]
    round, each alternating round) call at round boundaries. Advice
    changes only {e which expression} runs, never how an operator runs:
    the evaluators pick an operator's path from what they observe (delta
    eligibility, an equi-key). Every rewrite installed here must be
    {e result-exact}: the advised evaluation returns byte-identical sets
    (fuel is pinned by tests but not promised by this interface; see
    DESIGN.md §10).

    {!none} is the identity advice; evaluators default to it, and with
    it the advised code paths are byte-for-byte the unadvised ones. The
    overlays {!naive}, {!unfused} and {!unsplit} each clear one switch,
    forcing a reference path — a baseline the engine equivalences and
    benchmarks compare against — on top of any advice. *)

open Recalg_kernel

type t = {
  rewrite : Expr.t -> Expr.t;
      (** Applied to every expression an evaluator is about to walk
          (after definition inlining, so the planner sees every join
          region whole). Must preserve the result set of every
          evaluation, including under three-valued bounds and delta
          derivation. *)
  refresh : bound:(string * (unit -> int)) list -> Expr.t -> Expr.t option;
      (** Mid-fixpoint re-planning hook, called by the fixpoint engines
          at round boundaries with the observed cardinalities of the
          bound relations (lazy, so advice that never re-plans forces
          nothing). [Some body'] asks the engine to continue the loop
          with the re-planned body — which must be result-exact, like
          {!rewrite} — while [None] keeps the current one. Engines
          re-validate their own preconditions (e.g. semi-naive delta
          eligibility) before adopting a new body, and fuel accounting
          is per round, so adopting advice never changes results or
          fuel. *)
  seminaive : bool;
      (** Fixpoints — each [Ifp] node and each {!Rec_eval} phase —
          iterate semi-naively where their variables occur outside
          every nested [Ifp] (see {!Delta}), re-evaluating only nested
          [Ifp]s in full ([true], the default); [false]
          re-evaluates the whole body every round ({!naive}). Both visit
          byte-identical states on identical rounds. *)
  fused : bool;
      (** [Select (p, Product _)] nodes with an equi-key run as hash
          joins ([true], the default); [false] materialises the product
          and filters it ({!unfused}). *)
  split : bool;
      (** {!Rec_eval} solves the constants component by component
          ([true], the default); [false] is the whole-program
          alternating fixpoint ({!unsplit}). *)
}

val none : t
(** The identity advice: identity rewrite, a [refresh] that never
    re-plans, every switch [true]. *)

val is_none : t -> bool
(** Physical check against {!none}, so hot paths can skip hook calls. *)

val naive : t -> t
(** [t] with every fixpoint — each [Ifp] node and each {!Rec_eval}
    phase — iterated naively. *)

val unfused : t -> t
(** [t] with every [Select (p, Product _)] node evaluated by
    materialising the product and filtering it. *)

val unsplit : t -> t
(** [t] with {!Rec_eval} solving all constants as one alternating
    component: every round runs a high and a low phase over every
    constant until no low bound changes — the engine before component
    ordering, kept as the reference the split is checked against. It
    reaches the same bounds but not the same fuel. *)

val fused_join :
  t ->
  Builtins.t ->
  ?map:Efun.t ->
  Expr.t ->
  (Expr.t * Expr.t * (Value.t -> Value.t -> Value.t)) option
(** The evaluation path of a [Select (p, a)] node, the one decision the
    operator walk and the delta derivation share. [Some (l, r, join)]
    when [a] is a product [l × r], [t.fused] holds and [p] has an
    equi-key ({!Join.plan}): the node's value is [join] applied to the
    values of [l] and [r] — a hash join ({!Join.exec}), byte-identical to
    filtering the product. [None] means filter [a]'s value by [p]. Counts
    [plan/fused], or [plan/unfused] when [a] is a product that is not
    joined.

    [~map:f] asks for the node of [Map (f, node)]: [join] is then the
    join mapped through [f], whose value is the [Map] node's, so no pair
    the map discards is built. On [None] nothing is counted, as the
    caller then evaluates [node] itself; so each node counts once per
    evaluation either way. *)

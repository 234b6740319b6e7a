(** The evaluation path of the algebra engines: planner advice plus the
    defaults it overrides.

    {!Eval}, {!Rec_eval} and {!Delta} read this record, and nothing else,
    to choose between semi-naive and naive fixpoint loops and between
    fused and unfused joins. The cost-based planner lives in
    [recalg.plan], {e above} this library, so the evaluators cannot call
    it directly; it hands them this record of hooks instead: a
    whole-expression rewrite (join reordering, semijoin reduction,
    predicate pushdown) applied wherever an evaluator inlines an
    expression, plus per-node overrides queried as evaluation reaches
    the node. Every hook is advisory — [None] means "keep the default" —
    and every rewrite installed here must be {e result-exact}: the
    advised evaluation returns byte-identical sets (fuel is pinned by
    tests but not promised by this interface; see DESIGN.md §10).

    {!none} is the identity advice; evaluators default to it, and with
    it the advised code paths are byte-for-byte the unadvised ones. The
    overlays {!naive} and {!unfused} force the reference paths — the
    baselines the engine equivalences and benchmarks compare against —
    on top of any advice. *)

open Recalg_kernel

type strategy = Naive | Seminaive
(** How a fixpoint is iterated. [Seminaive] is the default: delta
    iteration where the fixpoint variable occurs delta-linearly (see
    {!Delta}), falling back per subexpression to full re-evaluation.
    [Naive] re-evaluates the whole body every round (the reference
    path). Both visit byte-identical states on identical rounds. *)

type t = {
  rewrite : Expr.t -> Expr.t;
      (** Applied to every expression an evaluator is about to walk
          (after definition inlining, so planner decisions key on the
          exact node values evaluation will encounter). Must preserve
          the result set of every evaluation, including under
          three-valued bounds and delta derivation. *)
  join_mode : Expr.t -> Join.mode option;
      (** Per-node fused/unfused override, called with the
          [Select (p, Product _)] node itself; [None] means fused. *)
  join_par : Expr.t -> bool option;
      (** Per-node parallel-join override for the same nodes:
          [Some true] partitions whenever the pool is parallel (ignoring
          [Join.par_threshold]), [Some false] forces the sequential
          path, [None] keeps the threshold heuristic. *)
  ifp_strategy : string -> Expr.t -> strategy option;
      (** Per-fixpoint strategy override, called with [x] and [body] for
          an [Ifp (x, body)] node, and with [name] and [body] for a
          recursive constant [name = body], whose phases {!Rec_eval}
          iterates; [None] means [Seminaive]. *)
  refresh : round:int -> bound:(string * (unit -> int)) list -> Expr.t -> Expr.t option;
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
}

val none : t
(** The identity advice: identity rewrite, every override [None]. *)

val is_none : t -> bool
(** Physical check against {!none}, so hot paths can skip hook calls. *)

val naive : t -> t
(** [t] with every fixpoint — each [Ifp] node and each {!Rec_eval}
    phase — iterated [Naive]. *)

val unfused : t -> t
(** [t] with every [Select (p, Product _)] node evaluated by
    materialising the product and filtering it. *)

val strategy : t -> string -> Expr.t -> strategy
(** [strategy t x body] is the iteration the fixpoint [x = body] gets:
    the {!field-ifp_strategy} override, [Seminaive] by default. *)

val fused_join :
  t ->
  Builtins.t ->
  Expr.t ->
  (Expr.t * Expr.t * (Value.t -> Value.t -> Value.t)) option
(** The evaluation path of a [Select (p, a)] node, the one decision all
    three engines share. [Some (l, r, join)] when [a] is a product
    [l × r], the advice does not force [Unfused] there and [p] has an
    equi-key ({!Join.plan}): the node's value is [join] applied to the
    values of [l] and [r] — a hash join under the node's
    {!field-join_par} override, byte-identical to filtering the product.
    [None] means filter [a]'s value by [p]. Counts [plan/fused], or
    [plan/unfused] when [a] is a product that is not joined. *)

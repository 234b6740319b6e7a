(** Relational bottom-up evaluation (naive and semi-naive).

    Works directly on relations of value tuples, without grounding — this
    is the production evaluation path for positive and stratified
    programs. Every relation a run reads sits in a {!Store}, and a
    positive literal probes it by its first bound argument (or by
    membership, when every argument is bound); a negative literal is a
    membership test. The rounds are {!Store.rounds}, the grounder's rule
    loop, with every rule body in its written order ({!Store.ordered}),
    except that a task restricted to a delta evaluates that literal
    first when it needs no bindings (a positive atom with no interpreted
    argument): each round walks the delta and probes the rest of the
    body with what it binds. Relations enter from the
    [base] database and leave in the result as the {!Tuples} sets {!Edb}
    holds, without conversion.

    Negative literals are permitted only when their predicate is fully
    materialised in the [base] database (lower strata or EDB); the
    stratified evaluator below arranges exactly that. *)

open Recalg_kernel

exception Unsafe of string
(** The same exception as {!Store.Unsafe}. *)

val naive : ?fuel:Limits.fuel -> Program.t -> base:Edb.t -> Rule.t list -> Edb.t
(** Evaluate [rules] to their least fixpoint over [base] by full
    re-evaluation each round. Returns only the newly derived relations. *)

val seminaive :
  ?fuel:Limits.fuel -> Program.t -> base:Edb.t -> Rule.t list -> Edb.t
(** Same result with delta-restricted re-evaluation. *)

val stratified :
  ?fuel:Limits.fuel -> Program.t -> Edb.t -> (Edb.t, string) result
(** Evaluate stratum by stratum, a stratum's components
    ({!Stratify.schedule}) as independent {!Recalg_kernel.Pool} tasks,
    semi-naive within each; [Error] when the program is not stratified
    or not safe. The result contains EDB and all derived relations, the
    same at every pool size, and so is the fuel spent. *)

(** {1 Incremental building blocks}

    The three steps of the differential update path ({!Incremental}):
    the dependents that propagate an overdeletion, a goal-directed
    rederivation of the overdeleted facts, and a semi-naive run resumed
    from a materialized fixpoint. Each costs the facts it touches, not
    the materialization. *)

val dependents :
  Program.t -> base:Edb.t -> Rule.t list ->
  Edb.t -> (string -> Value.t list -> unit) -> unit
(** [dependents program ~base rules] sets up one store per body
    predicate over [base] and returns a function of a [frontier] (a
    subset of [base]) and an [emit], which calls [emit] on each head fact
    that some rule derives with a positive body literal drawn from the
    frontier and the rest of the body from [base]: the single-step
    dependents that overdeletion closes over. A fact is emitted once per
    derivation. Each call swaps its frontier in as the stores' delta; no
    call rebuilds a store or an index over [base]. *)

val rederive :
  ?fuel:Limits.fuel -> Program.t -> base:Edb.t -> Edb.t -> Rule.t list -> Edb.t
(** [rederive program ~base facts rules] is the facts of [facts],
    outside [base], that some rule derives in one step over [base], at
    one unit of fuel each. Each fact is checked only against the rules
    for its predicate: it binds the head arguments that apply no
    interpreted function, the body is solved from there, and the whole
    head is evaluated under each solution and compared with the fact. *)

val resume :
  ?fuel:Limits.fuel -> Program.t -> base:Edb.t -> init:Edb.t -> delta:Edb.t ->
  Rule.t list -> Edb.t
(** Continue semi-naive evaluation from the materialized state [init]
    (the derived relations of a previous run, possibly shrunk by an
    overdeletion) over the extensional database [base]. [delta] holds
    the facts new since [init]: inserted extensional facts and
    rederived ones. They, and the facts of [base] for derived predicates
    that [init] lacks (new axioms), are the first round's delta, so
    every round is a delta round whose cost scales with the change, not
    the materialization. When every derivation over [init] and [base]
    that reads no fact of that delta already lies in [init] or the
    delta (true for an insert-only continuation, and for a DRed
    remainder of a negation-free program with its rederived facts), the
    result equals {!seminaive} from scratch. *)

(** Relational bottom-up evaluation (naive and semi-naive).

    Works directly on relations of value tuples, without grounding — this
    is the production evaluation path for positive and stratified
    programs, and the subject of the engine-ablation benchmark (E8).
    Every relation a run reads sits in a {!Store}, and a positive literal
    probes the store's per-argument hash index with its first bound
    argument; a negative literal is a membership test. The rounds are
    {!Store.rounds}, the grounder's rule loop, with every rule body in
    its written order ({!Store.ordered}). Relations enter from the
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
(** Stratify and evaluate stratum by stratum (semi-naive within each);
    [Error] when the program is not stratified or not safe. The result
    contains EDB and all derived relations. *)

(** {1 Incremental building blocks}

    Primitives for the differential update path ({!Incremental}): resume
    a materialized fixpoint instead of recomputing it, and fire one
    delta-restricted round for delete propagation. *)

val resume :
  ?fuel:Limits.fuel -> ?adds:Edb.t -> Program.t -> base:Edb.t ->
  init:Edb.t -> Rule.t list -> Edb.t
(** Continue semi-naive evaluation from the materialized state [init]
    (the derived relations of a previous run, possibly shrunk by an
    overdeletion pass). With [adds] — the newly inserted extensional
    facts — the first round fires only the delta-restricted
    instantiations drawn from them: the pure semi-naive continuation,
    whose cost scales with the change, not the materialization. Without
    [adds], one unrestricted round wakes every rule against [init] and
    the current [base] — catching rederivations, as the DRed remainder
    requires — before delta-restricted rounds close up. When [init] is
    below the least fixpoint of [rules] over [base] (true for
    insert-only continuation and for DRed remainders of negation-free
    programs), the result equals {!seminaive} from scratch. *)

val delta_heads :
  Program.t -> base:Edb.t -> frontier:Edb.t -> Rule.t list -> Edb.t
(** One delta-restricted firing: all rule-head facts derivable with some
    positive body literal drawn from [frontier] and the rest of the body
    from [base] — the single-step dependents of the frontier facts, used
    to propagate overdeletion. [frontier] is a subset of [base]. *)

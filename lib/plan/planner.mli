(** The cost-based planner: n-ary join ordering, selection pushdown,
    semijoin reduction, and re-planning on cardinality drift.

    A planner value holds {!Stats} plus a {!mode} and produces an
    {!Recalg_algebra.Advice.t} the evaluators consume. Its rewrite walks
    an expression bottom-up; each maximal [Select]/[Product] region is
    flattened into join {e leaves} and lifted conjuncts, every conjunct
    is classified (per-leaf pushdown, equi-join edge between two leaves,
    or general residual), a join order is searched — Selinger-style
    dynamic programming over leaf subsets (bushy, both orientations) for
    up to 8 leaves, greedy left-deep above that — and the region is
    rebuilt with each conjunct attached at its lowest
    covering node and a final reshape [Map] restoring the original pair
    structure. Under an enclosing projection that keeps a single leaf,
    the reshape is dropped and discarded leaves touched only by
    equi-conjuncts are reduced to their join keys (a semijoin — exact,
    because sets dedup) when sampled distinct counts predict a shrink.

    {b Exactness.} Every rewrite is result-exact: conjuncts are composed
    with the projection path to wherever they attach ([Efun] composition
    is strict, so definedness is preserved), each attaches exactly once
    (enforced by a defensive count — on mismatch the planner declines
    and the original expression runs), and reshapes are bijections on
    the canonical sets. Plan choice may change {e fuel} (iteration
    accounting) in principle; the QCheck properties pin result equality,
    and the test suite pins fuel equality on the shapes we ship.

    The planner chooses only {e which expression} runs. How each
    operator runs — semi-naive or naive, hash join or product, parallel
    or sequential — the evaluators decide from what they observe, so a
    planned run takes the same operator paths as an unplanned run of the
    rewritten expression. *)

open Recalg_algebra

type mode =
  | Off  (** no rewrite, {!advice} is {!Advice.none} *)
  | Cost  (** DP join order (<= 8 leaves, greedy above) + cost model *)

val mode_to_string : mode -> string

type join_report = {
  leaves : string list;  (** leaf labels, original left-to-right order *)
  original : string;  (** rendered syntactic join tree *)
  chosen : string;  (** rendered planned join tree *)
  est_cost_original : float;
  est_cost_chosen : float;
  est_out : float;  (** estimated final output cardinality *)
  semijoins : int;
  pushdowns : int;
  reordered : bool;
}

type t

val create : ?stats:Stats.t -> mode -> t

val rewrite : t -> Expr.t -> Expr.t
(** The planning rewrite, exposed for direct use and testing. [Off]
    returns the expression unchanged. Also appends to the {!reports} log
    as a side effect. *)

val refresh : t -> bound:(string * (unit -> int)) list -> Expr.t -> Expr.t option
(** The mid-fixpoint re-planning hook behind [Advice.refresh], exposed
    for testing. Under [Cost]: forces the cardinality thunks and — when
    an observed bound-relation cardinality drifts from the estimate the
    current plan used by a ratio of [4.0] or more, in either direction —
    installs the observed values as estimation overrides and re-plans
    the body. The thunks are the only live input: the metrics registry
    is never read, so collection on or off plans identically. Returns
    [Some body'] only when the re-plan structurally changed the
    expression; counts [plan/drift] and [plan/replan]. [Off] returns
    [None] without forcing a thunk. *)

val advice : t -> Advice.t
(** The advice record to pass to [Eval.eval], [Rec_eval.solve], or
    [Ifp_elim.query_value]: the planner's {!rewrite} and {!refresh},
    with every other field as in {!Advice.none}. {!Advice.none} itself
    when the mode is [Off], so evaluators skip the hooks entirely. The
    planner keeps its reports and observed cardinalities in unlocked
    state, so one advice must not serve evaluations on several domains
    at once. *)

val reports : t -> join_report list
(** One report per planned join region, in planning order — the EXPLAIN
    payload. *)

val pp_reports : Format.formatter -> join_report list -> unit

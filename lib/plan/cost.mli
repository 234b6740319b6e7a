(** The planner's cost model: the constants and formulas the join-order
    search optimises. Pure arithmetic — all data dependencies (sampled
    cardinalities, distinct counts) are passed in by {!Planner}. See
    DESIGN.md §10 for the assumptions. *)

val default_card : float
(** Estimated cardinality of a relation with no stats (64). *)

val pushdown_selectivity : float
(** Per-conjunct shrink factor for pushed-down selections (0.5). *)

val build_weight : float
(** Weight of a join node's build (right) side in {!join_node_cost} —
    breaks ties toward hash-indexing the smaller side. *)

val reshape_weight : float
(** Cost of the final reshape [Map] a reordered region owes when it is
    not under a projection, as a multiple of the estimated output (1) —
    one extra materialisation of the result. *)

val semijoin_benefit : float
(** Maximum [distinct/card] ratio at which a semijoin reducer is
    inserted (0.8) — reducing a side that barely shrinks is a loss. *)

val clamp : float -> float
(** [max 1.] — keeps divisors and estimates away from zero. *)

val equi_selectivity : dl:float -> dr:float -> float
(** [1 / max(dl, dr)]: fraction of the cross product an equi-conjunct
    keeps, given the two sides' key distinct counts. *)

val cross : float -> float -> float

val join_node_cost : out:float -> build:float -> float
(** Cost contribution of one join node: its estimated output plus
    [build_weight] times its build side. *)

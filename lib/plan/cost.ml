(* The cost model: plain arithmetic over estimated cardinalities, kept
   separate from the search so its assumptions are auditable in one
   place. All estimates are floats to dodge overflow on cross products.

   Assumptions (documented in DESIGN.md §10):
   - unknown relation cardinality defaults to [default_card];
   - an equi-join keeps |L|*|R| / max(d_L, d_R) pairs, where d is the
     key's distinct count (sampled per column when stats exist,
     optimistically the full cardinality otherwise);
   - a pushed-down or residual conjunct halves its input;
   - the cost of a join tree is the sum of its intermediate result
     estimates plus [build_weight] times each node's build side —
     penalising plans that hash-index a large relation. *)

let default_card = 64.
let pushdown_selectivity = 0.5
let build_weight = 0.25

let reshape_weight = 1.
(* A reordered region that is not under a projection pays one final
   [Map] rebuilding every result tuple in the original shape — charged
   as one extra materialisation of the estimated output. *)

let semijoin_benefit = 0.8
(* A semijoin reducer must shrink its side to at most this fraction of
   the original estimate to be inserted. *)

let clamp x = Float.max 1. x

let equi_selectivity ~dl ~dr = 1. /. clamp (Float.max dl dr)

let cross l r = l *. r

let join_node_cost ~out ~build = out +. (build_weight *. build)

(** Strongly connected components of directed graphs over the vertices
    [0 .. n-1] — the one decomposition behind stratification (Thm 4.3),
    the component order of [Rec_eval] (Prop 3.4) and the connected
    components the parallel stratum evaluators fan out over. *)

val sccs : int -> (int -> int list) -> int list list
(** [sccs n succ] is Tarjan's algorithm over the edges [v -> w] for [w]
    in [succ v] (every [w] must lie in [0 .. n-1]; [succ] is called once
    per vertex). Roots are tried in ascending order and successors in
    the order [succ] lists them. Each component lists its members
    ascending, and comes after every component it reaches: when edges
    point from dependant to dependency, the output is an evaluation
    order. The traversal keeps its own work stack, so its depth is not
    bounded by the OCaml stack. *)

val index : int -> int list list -> int array
(** [index n comps] maps each vertex of [0 .. n-1] to the position of
    its component in [comps] ([-1] for a vertex in none). *)

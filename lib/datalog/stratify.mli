(** Stratification analysis.

    A program is stratified when no predicate depends negatively on itself
    through the predicate dependency graph — equivalently, no strongly
    connected component contains a negative edge. Theorem 4.3 of the paper
    identifies stratified deduction with the positive IFP-algebra. *)

type analysis =
  | Stratified of string list list
      (** The least stratification: predicate groups in evaluation
          order, each one stratum (possibly merging several SCCs of
          equal stratum number), members in {!Program.all_preds}
          order. *)
  | Not_stratified of string * string
      (** A negative edge [p -> q] on a cycle ([q] reaches [p]): the
          first such edge in rule order. *)

val analyse : Program.t -> analysis
(** One pass over the SCCs of the predicate dependency graph
    ({!Recalg_kernel.Graph.sccs}): linear in the size of the program. *)

val is_stratified : Program.t -> bool

val strata : Program.t -> (string list list, string) result
(** [Ok groups] or [Error message]. *)

val components : Program.t -> string list -> string list list
(** [components p preds] splits [preds] into the connected components of
    [p]'s predicate dependency graph restricted to [preds] (edges taken
    as undirected), ordered by first occurrence in [preds]. Predicates
    of one stratum in different components have disjoint, mutually
    unreachable fixpoints — the parallel stratum evaluators compute the
    components as independent tasks. *)

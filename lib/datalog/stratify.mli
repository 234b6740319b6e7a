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

val schedule : Program.t -> (string list list list, string) result
(** The stratified evaluators' schedule, from the same pass as
    {!analyse}: for each stratum in evaluation order, its derived
    predicates (those some rule defines) split into connected
    components. Two derived predicates of a stratum share a component
    when a chain of dependency edges between derived predicates of that
    stratum, taken as undirected, links them. Members come in
    {!Program.all_preds} order and components in order of first member;
    strata with no derived predicate are left out. Components of one
    stratum read only lower strata and the extensional database, never
    each other, so their fixpoints are independent and together
    partition the stratum's derived facts. [Error] as in {!strata}. *)

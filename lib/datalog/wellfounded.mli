(** The well-founded model: the repository's one three-valued solver,
    behind the [valid] and [wellfounded] semantics, [Stable]'s bounds and
    [Run.Live].

    The well-founded model is the least fixpoint of two steps (Van
    Gelder, Ross & Schlipf, JACM 1991): derive what is certainly true,
    and falsify the greatest unfounded set. The solver takes them in
    time linear in the ground program, except inside cycles:

    + The occurrence index is built once, as flat arrays: each atom's
      positive occurrences, negative occurrences and rules.
    + Counting propagation decides what it can. A rule fires when none
      of its literals is left pending, and dies when one is decided
      against it; an atom is true when a rule for it fires, and false
      when no live rule for it is left.
    + Propagation stalls only on cycles. The atoms it leaves undecided
      are split into strongly connected components
      ({!Recalg_kernel.Graph.sccs}) over the live rules and walked
      dependencies first. A component that still has undecided atoms
      gets one least fixpoint over its live rules, counting only the
      positive literals inside it; the atoms that fixpoint does not
      reach are unfounded and become false, and propagation runs again.
      A component is done when a pass finds nothing unfounded; what it
      leaves undecided is undefined.

    An unfounded set is looked for per component, never over the whole
    program: a chain of components that each need one pass then costs
    one pass each, where a whole-program search would cost a whole
    program each. [Valid.reference] is the paper's Section 2.2
    iteration, the oracle the tests hold this solver to.

    The solver spends no fuel. Under an observability sink it reports
    [wellfounded/passes] (unfounded-set passes) and
    [wellfounded/unfounded] (atoms they falsified), once per solve,
    under one [wellfounded] span. *)

val solve : Propgm.t -> Interp.t

val solve_raw : Propgm.t -> Recalg_kernel.Bitset.t * Recalg_kernel.Bitset.t
(** [(true set, undefined set)] as bitsets over the grounding's atom ids. *)

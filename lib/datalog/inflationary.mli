(** Inflationary fixpoint semantics.

    Rules are applied simultaneously, with [not a] read as "[a] was not
    derived so far"; results accumulate and the process stops at the first
    fixpoint. This is the semantics under which the naive IFP-algebra to
    deduction translation is exact (Proposition 5.1), and the one the
    stage-index transformation of Proposition 5.2 simulates under the
    valid semantics. *)

val solve : Propgm.t -> Interp.t

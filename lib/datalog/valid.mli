(** The valid model computation, exactly as summarised in Section 2.2 of
    the paper:

    {v
    Initially, all the facts are undefined. At each step, we look at all
    the possible derivations starting from the current set T of true
    facts, where only facts not in T are allowed to be used negatively.
    The facts that are not derivable in any such computation are assumed
    to be certainly false, and are therefore added to F. The false facts
    in F and the true facts in T are then used to derive new true facts,
    that are added to T; in this derivation we use negatively only facts
    from F. The process is repeated until no more true facts can be
    derived. v}

    [F] accumulates monotonically across iterations (a fact once certainly
    false stays false), and the loop ends when [T] stabilises. On the
    finite ground programs produced by our grounder the iteration is
    guaranteed to terminate. The well-founded alternating fixpoint
    ({!Wellfounded}) is an independent implementation of the same
    two-phase idea; the test suite checks the two agree on every program
    we generate, as the paper's Section 7 remark predicts. *)

val solve : Propgm.t -> Interp.t

val iterations : Propgm.t -> int
(** Number of outer (T, F) refinement rounds until the fixpoint — exposed
    for the benchmarks. *)

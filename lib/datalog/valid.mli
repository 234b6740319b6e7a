(** The valid model (Section 2.2 of the paper).

    {!solve} computes it with {!Wellfounded.solve}, the repository's one
    three-valued solver: on the ground programs our grounder produces the
    valid model is the well-founded model, as the paper's Section 7 remark
    predicts.

    {!reference} is the paper's own iteration, kept verbatim as the
    oracle the solver is tested against:

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
    false stays false), and the loop ends when [T] stabilises. Each round
    is two whole-program {!Fixpoint.lfp} passes, and a WIN chain of [N]
    moves takes about [N/2] rounds, so the reference is quadratic there;
    no CLI path calls it. *)

val solve : Propgm.t -> Interp.t
(** The valid model, by {!Wellfounded.solve}. *)

val reference : Propgm.t -> Interp.t
(** The valid model by the Section 2.2 iteration above. *)

val iterations : Propgm.t -> int
(** Number of outer (T, F) rounds {!reference} takes to reach its
    fixpoint. *)

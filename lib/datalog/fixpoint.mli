(** Least fixpoints of propositional ground programs.

    Compute the least set of atoms closed under the rules, where a rule
    may fire only if each of its negative literals [not a] is
    {e licensed} by the caller ([neg_ok a]). The Section 2.2 reference
    iteration ({!Valid.reference}) is a two-phase loop around this
    primitive, {!Stable} checks each candidate against the reduct with
    it, and {!Grounder.Live} computes atom liveness with it. The
    three-valued solver ({!Wellfounded}) does not call it: it builds its
    occurrence index once per solve, where each call here builds its
    watch lists again. *)

open Recalg_kernel

val lfp : Propgm.t -> neg_ok:(int -> bool) -> Bitset.t
(** Linear-time counting propagation. *)

val stages : Propgm.t -> stage:(int -> unit) -> Bitset.t
(** The inflationary fixpoint: from the empty set, each stage adds the
    heads of the rules whose positive atoms are all in the set and whose
    negative atoms are all out of it, until a stage adds nothing.
    [stage k] is called once per stage, the last one included, with the
    number [k] of atoms it added. Linear in the size of the program: each
    rule is decided once, at the first stage holding all its positive
    atoms. *)

(** Syntactic polarity analysis.

    An occurrence of a name is {e negative} when it sits under an odd
    number of right-hand sides of difference. The {b positive IFP-algebra}
    of [Beeri-Milo PODS'92] (Theorem 4.3 here) restricts [IFP] to bodies
    where the fixpoint variable never occurs negatively; such bodies are
    monotone (Definition 3.3), and by Proposition 3.4 the recursive
    equation [S = exp(S)] and [IFP_exp] then define the same set. *)

val negative_names : Expr.t -> string list
(** Relation names with at least one negative occurrence (free names
    only). *)

val positive_names : Expr.t -> string list
val occurs_negatively : Expr.t -> string -> bool

val positive_ifp : Expr.t -> bool
(** Every [Ifp (x, body)] within the expression has no negative occurrence
    of [x] in [body] — membership in the positive IFP-algebra. *)

val monotone_in : string list -> Expr.t -> bool
(** [monotone_in names e]: no name in [names] occurs negatively in the
    inlined expression [e], and every [Ifp] within it is positive — the
    sound, incomplete syntactic test of Definition 3.3 for [e] as a
    function of [names]. The one polarity rule behind
    {!monotone_syntactic}, {!positive_program} and {!Rec_eval}'s
    positive components. *)

val monotone_syntactic : Defs.t -> string -> bool
(** The named constant's (inlined) body mentions no defined constant and
    no IFP variable negatively — a sound, incomplete monotonicity check
    for Definition 3.3. *)

val positive_program : Defs.t -> bool
(** All definitions are syntactically monotone and all IFPs positive. *)

(** (Generalized conditional) equations.

    A premise is an equation or — the extension of Section 2.2 — a
    {e disequation} between terms; the conclusion is an equation. The
    membership default of the paper,
    [MEM(x, y) =/= T -> MEM(x, y) = F], is one conditional equation with a
    negative premise. *)

type premise =
  | Eq_prem of Term.t * Term.t
  | Neq_prem of Term.t * Term.t

type t = { premises : premise list; lhs : Term.t; rhs : Term.t }

val equation : ?premises:premise list -> Term.t -> Term.t -> t
val eq_prem : Term.t -> Term.t -> premise
val neq_prem : Term.t -> Term.t -> premise

val vars : t -> (string * Signature.sort) list
val has_negative_premise : t -> bool

val check : Signature.t -> t -> (unit, string) result
(** Both sides of the conclusion and of every premise must be well sorted
    with matching sorts. *)

val pp : Format.formatter -> t -> unit

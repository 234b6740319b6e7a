(** Atoms and body literals.

    A body literal is an atomic formula [R(t̄)], a negated atomic formula,
    or an (in)equality between terms — exactly the atomic formulas
    [Q_j] of the paper's Horn clauses (Section 4): "[Q_j] is an atomic
    formula ([R_i(x_j)], [exp1 = exp2]) or a negated atomic formula". *)

open Recalg_kernel

type atom = { pred : string; args : Dterm.t list }

type t =
  | Pos of atom
  | Neg of atom
  | Eq of Dterm.t * Dterm.t
  | Neq of Dterm.t * Dterm.t

val atom : string -> Dterm.t list -> atom
val pos : string -> Dterm.t list -> t
val neg : string -> Dterm.t list -> t
val eq : Dterm.t -> Dterm.t -> t
val neq : Dterm.t -> Dterm.t -> t

val compare_atom : atom -> atom -> int
val compare : t -> t -> int
val equal : t -> t -> bool

val vars : t -> string list
val atom_vars : atom -> string list
val is_positive : t -> bool

val ground_atom : Builtins.t -> Subst.t -> atom -> (string * Value.t list) option
(** Evaluate all argument terms; [None] if some term is undefined. *)

val rename : (string -> string) -> t -> t

val pp_atom : Format.formatter -> atom -> unit
val pp : Format.formatter -> t -> unit

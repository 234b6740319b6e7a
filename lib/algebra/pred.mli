(** Boolean selection tests for the algebra's [sigma_test] operator.

    Tests are evaluated per element; an undefined atom (e.g. a comparison
    applied outside its domain) makes the whole test undefined and the
    selection drops the element — consistent with element functions being
    partial. *)

open Recalg_kernel

type t =
  | True
  | False
  | Eq of Efun.t * Efun.t
  | Neq of Efun.t * Efun.t
  | Lt of Efun.t * Efun.t  (** integer comparison *)
  | Leq of Efun.t * Efun.t
  | Is_cstr of string * int * Efun.t
      (** holds when the value computed by the element function is
          [Cstr (name, args)] of that arity *)
  | Mem of Efun.t * Efun.t
      (** [Mem (f, g)]: the value of [f] is a member of the set value of
          [g] — undefined when [g] does not compute a set. Complex-object
          selections (set-valued attributes) are phrased with this. *)
  | And of t * t
  | Or of t * t
  | Not of t

val eval : Builtins.t -> t -> Value.t -> bool option
val eq_const : Value.t -> t
(** [sigma_{EQ(x, a)}]: the element equals the given constant. *)

val pp : Format.formatter -> t -> unit
(** The [.alg] syntax of a test, as {!Expr.pp}. *)

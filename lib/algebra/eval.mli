(** Two-valued evaluation of IFP-algebra queries (Section 3.1).

    Handles the full operator set including [IFP] (by inflationary
    iteration) and non-recursive definitions. Recursive definitions have
    no two-valued semantics in general — Section 3.2's [S = {a} - S] —
    and are rejected; they are the business of {!Rec_eval}, whose one
    evaluator this is, on defined inputs (Thm 3.5). *)

open Recalg_kernel

exception Undefined_relation of string
exception Recursive_definition of string
(** Both are {!Rec_eval}'s exceptions. *)

val eval :
  ?fuel:Limits.fuel ->
  ?advice:Advice.t ->
  Defs.t ->
  Db.t ->
  Expr.t ->
  Value.t
(** Raises {!Recursive_definition} when the expression reaches a defined
    constant that (transitively) refers to itself, and
    [Limits.Diverged] when an [IFP] fails to converge within fuel.

    [advice] (default {!Advice.none}) chooses the evaluation path as for
    {!Rec_eval.solve}; every path computes byte-identical values on
    identical rounds and spends identical fuel.

    Under a [Limits.governed ~degrade:true] budget, exhaustion in an
    [IFP] under an even number of difference right-hand sides, counting
    through the constants that lead to it, returns the iterate so far (a
    sound under-approximation) and latches the cause; anywhere else it
    raises. *)

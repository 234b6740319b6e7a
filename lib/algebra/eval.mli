(** Two-valued evaluation of IFP-algebra queries (Section 3.1).

    Handles the full operator set including [IFP] (by inflationary
    iteration) and non-recursive definitions (by inlining). Recursive
    definitions have no two-valued semantics in general — Section 3.2's
    [S = {a} - S] — and are rejected; they are the business of
    {!Rec_eval}. *)

open Recalg_kernel

exception Undefined_relation of string
exception Recursive_definition of string

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

    [advice] (default {!Advice.none}) chooses the evaluation path. By
    default an [IFP] iterates semi-naively where its variable occurs
    delta-linearly (see {!Delta}), with per-subexpression fallback to
    full re-evaluation elsewhere, and [Select (p, Product _)] nodes with
    an extractable equi-key run as hash joins (see {!Join}). The
    overlays {!Advice.naive} and {!Advice.unfused} force the reference
    paths; every path computes byte-identical values on identical rounds
    and spends identical fuel. A planner's advice also rewrites every
    inlined expression before it is walked; any advice built by
    [Recalg.Plan] preserves results byte for byte. *)

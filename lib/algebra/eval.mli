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
  ?strategy:Delta.strategy ->
  ?join:Join.mode ->
  ?advice:Advice.t ->
  Defs.t ->
  Db.t ->
  Expr.t ->
  Value.t
(** Raises {!Recursive_definition} when the expression reaches a defined
    constant that (transitively) refers to itself, and
    [Limits.Diverged] when an [IFP] fails to converge within fuel.

    [strategy] (default [Seminaive]) selects the [IFP] loop: semi-naive
    delta iteration where the fixpoint variable occurs delta-linearly
    (see {!Delta}), with per-subexpression fallback to full
    re-evaluation elsewhere. Both strategies compute byte-identical
    results on identical rounds; [Naive] is the benchmark baseline.

    [join] (default [Fused]) evaluates [Select (p, Product _)] nodes with
    an extractable equi-key as hash joins (see {!Join}); [Unfused] always
    materialises the product and filters. The two modes return
    byte-identical values and spend identical fuel.

    [advice] (default {!Advice.none}) installs planner hooks: the
    rewrite runs on every inlined expression before it is walked, and
    the per-node overrides replace [join]/[strategy] at individual
    [Select]/[Ifp] nodes. Any advice built by [Recalg.Plan] preserves
    results byte for byte. *)

val eval_closed :
  ?fuel:Limits.fuel ->
  ?strategy:Delta.strategy ->
  ?join:Join.mode ->
  ?advice:Advice.t ->
  Db.t ->
  Expr.t ->
  Value.t
(** Evaluation with no definitions in scope. *)

(** IFP elimination (Theorem 3.5 / Corollary 3.6):
    [IFP-algebra ⊂ algebra=] — with recursive definitions available, the
    explicit inflationary fixpoint operator is redundant.

    The elimination is the paper's composite construction: translate the
    IFP-algebra query to a deductive program (Proposition 5.1, exact under
    inflationary semantics), apply the stage-index transformation so the
    valid semantics computes the same model (Proposition 5.2), and map
    the resulting safe deductive program back to recursive algebra
    equations (Proposition 6.1). *)

open Recalg_kernel
open Recalg_algebra

type t = {
  defs : Defs.t;  (** the [algebra=] image: recursive equations, IFP-free *)
  db : Db.t;
  query_constant : string;
      (** nullary constant whose value is the original query's *)
  stage_bound : int;  (** stage bound certified by saturation *)
}

val eliminate :
  ?fuel:Limits.fuel -> ?initial_bound:int -> Defs.t -> Db.t -> Expr.t -> t
(** The input may use [IFP] freely; the output definitions contain none
    (and no [Call]s). The query answer is the value of
    [query_constant] — elements arrive wrapped as 1-tuples by the
    deduction round trip, see {!query_value}.

    The input is expected to be an {e IFP-algebra} query, i.e. [defs]
    holds non-recursive helper definitions only, matching Theorem 3.5's
    statement: the whole pipeline runs through the inflationary
    semantics, which disagrees with the valid semantics on recursive
    definitions that use subtraction (Example 4). *)

val query_value :
  ?fuel:Limits.fuel ->
  ?window:Value.t ->
  ?advice:Advice.t ->
  t ->
  Rec_eval.vset
(** Solve the produced [algebra=] program and return the query constant's
    set, unwrapped back to plain elements. [advice] chooses the
    evaluation path of {!Rec_eval.solve} (see {!Recalg_algebra.Advice});
    results are unchanged under any advice built by the planner. *)

val uses_ifp : Expr.t -> bool
val defs_use_ifp : Defs.t -> bool

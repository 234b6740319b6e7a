(** Deduction-to-algebra translation (Section 6, Proposition 6.1).

    Every derived predicate [P_i] becomes a nullary set constant [P_i^a]
    holding the set of derivation tuples ([Value.Tuple] of the arguments).
    For each predicate we build its {e simulation function}: an algebra
    expression computing one simultaneous derivation step of its rules —
    the standard calculus-to-algebra compilation of each rule body read in
    a safe evaluation order, where

    - a positive atom joins (product + selection + restructuring),
    - a negative atom subtracts the matching environments (difference),
    - an equality either selects or extends the environment with a
      computed value (interpreted functions included),
    - constructor terms are matched with [Is_cstr] tests and destructured
      with [Arg] element functions.

    The constant is then defined by the recursive equation
    [P_i^a = exp_i(P_1^a, ..., P_n^a, R_1^a, ..., R_m^a)] — an [algebra=]
    program whose valid semantics agrees with the program's. *)

open Recalg_kernel
open Recalg_datalog
open Recalg_algebra

exception Untranslatable of string
(** Raised when a rule is not safe (no evaluable literal order). *)

type t = {
  defs : Defs.t;
  db : Db.t;
  pred_constants : (string * string) list;
      (** program predicate -> algebra constant name *)
}

val translate : Program.t -> Edb.t -> t

val tuple_of_args : Value.t list -> Value.t
(** The element representing one derived tuple ([Value.tuple], uniformly,
    including arities 0 and 1). *)

val pred_tuples :
  Rec_eval.solution -> t -> string -> Value.t list list * Value.t list list
(** [(certain, possible)] argument tuples of a translated predicate in a
    solved recursive program. *)

val compile_rule :
  Recalg_kernel.Builtins.t ->
  uncertain:(string -> bool) ->
  (string -> Expr.t) -> Rule.t -> Expr.t
(** Compile one safe rule body into the algebra expression computing its
    derived head tuples, resolving each body predicate through the given
    function — the rule-level simulation function, shared with the
    stratified translation of Theorem 4.3 ({!Stratified_to_ifp}).
    [uncertain] holds of the predicates whose extension is approximate
    (used for precision-aware literal ordering; pass [fun _ -> false]
    for two-valued targets). *)

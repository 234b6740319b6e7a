(** The constructive half of Theorem 4.3: stratified safe deduction into
    the {e positive} IFP-algebra.

    Strata are translated in order; within a stratum the (possibly
    mutually recursive) predicates are computed by one simultaneous
    inflationary fixpoint over a tagged union — an element of the
    fixpoint set is [\[pred_name, args\]] — and each predicate's constant
    selects and untags its part. Negation only ever reaches predicates of
    lower strata, already bound to completed constants, so the fixpoint
    variable occurs positively throughout: the produced program passes
    {!Recalg_algebra.Positivity.positive_ifp} and evaluates two-valued
    with the plain {!Recalg_algebra.Eval}. *)

open Recalg_kernel
open Recalg_datalog
open Recalg_algebra

type t = {
  defs : Defs.t;  (** non-recursive definitions, one per derived predicate *)
  db : Db.t;
  pred_constants : (string * string) list;
  levels : (Defs.t * (string * string list) list) list;
      (** evaluation schedule, one entry per stratum: the stratum's own
          fixpoint definitions plus its [(fixpoint constant, member
          predicates)] components — what {!eval_all} fans out over *)
}

val translate : Program.t -> Edb.t -> (t, string) result
(** [Error] when the program is unsafe or not stratified. Each stratum
    is split into the connected components of its dependency graph
    ({!Recalg_datalog.Stratify.components}); every component gets its
    own simultaneous fixpoint constant — sound because components never
    read each other's tag space, so the joint inflationary fixpoint is
    the disjoint union of the component fixpoints. *)

val schedule : t -> (string * string list) list list
(** The level structure: for each stratum in evaluation order, its
    components as [(fixpoint constant, member predicates)] pairs.
    Components of one level are mutually independent. *)

val eval_pred : ?fuel:Limits.fuel -> t -> string -> Value.t list list
(** Evaluate one translated predicate to its set of argument tuples. *)

val eval_all : ?fuel:Limits.fuel -> t -> (string * Value.t) list
(** Materialise every translated predicate, level by level: the
    components of each level evaluate as independent
    {!Recalg_kernel.Pool} tasks (sequentially at pool size 1) against
    the database extended with all earlier levels' results, so no
    fixpoint is ever recomputed. Returns [(pred, set value)] in schedule
    order. Results and fuel spend are identical at every pool size.

    It takes no {!Recalg_algebra.Advice.t}: a planner's advice keeps
    its reports and observed cardinalities in unlocked state as it
    rewrites, so the component tasks, which may run on several domains
    at once, must not share one. *)

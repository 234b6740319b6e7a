(** Three-valued evaluation of [algebra=] / [IFP-algebra=] programs under
    the valid semantics.

    A recursive program is a set of equations [S_i = exp_i(S_1, ..., S_n)]
    over nullary defined constants (parameterised definitions are inlined
    first, see {!Defs}). Following the valid-model computation of Section
    2.2, each constant is approximated by a pair of sets

    - [low]: elements {e certainly} in the constant (membership true), and
    - [high]: elements {e possibly} in it (outside it membership is false),

    refined by an alternating fixpoint: with the lows of the previous
    round fixed, the highs are the least fixpoint of optimistic
    evaluation (difference subtracts only certain members); with the highs
    fixed, the new lows are the least fixpoint of conservative evaluation
    (difference subtracts all possible members). Elements in [high \ low]
    have undefined membership — e.g. [a] in the [S = {a} - S] example, or
    positions on [MOVE]-cycles in the WIN game (Example 3).

    When the program is well defined (has an initial valid model, e.g. all
    IFP-algebra translations — Theorem 3.1), every queried membership is
    defined and [low = high] everywhere. *)

open Recalg_kernel

exception Undefined_relation of string

type vset = { low : Value.t; high : Value.t }
(** [low] ⊆ [high]; both canonical sets. *)

val member : vset -> Value.t -> Tvl.t
val exact : Value.t -> vset
val is_defined : vset -> bool
(** [low = high]: every membership in this set is two-valued. *)

val undef_elements : vset -> Value.t list
val pp_vset : Format.formatter -> vset -> unit

type solution

val solve :
  ?fuel:Limits.fuel ->
  ?window:Value.t ->
  ?advice:Advice.t ->
  Defs.t ->
  Db.t ->
  solution
(** Run the alternating fixpoint for all nullary constants. [window], when
    given, intersects every constant with a finite universe after each
    step — the domain-independence "window" that makes intentionally
    infinite sets (the even numbers [S^e_c]) queryable; answers are then
    only meaningful for elements inside the window, and only when values
    outside the window cannot flow back in (true of all bundled
    examples).

    [advice] (default {!Advice.none}) chooses the evaluation path. Each
    phase's least fixpoint is computed, per defined constant [n = body],
    under [Advice.strategy advice n body] — by default semi-naively:
    iterations join only the delta-derived new tuples against the
    accumulated bound when the body's defined constants occur
    delta-linearly, falling back to full recomputation otherwise (and
    for nested [IFP]s likewise, per bound). Semi-naive accumulators are
    {!Delta.Acc}s: a round interns only its delta, and the accumulated
    bound is merged when read or when the loop ends. [Select (p,
    Product _)] nodes run as hash joins on each bound the evaluation
    needs ({!Advice.fused_join}). The overlays {!Advice.naive} and
    {!Advice.unfused} force the reference paths; every path visits
    byte-identical bounds on identical iterations and spends identical
    fuel. A planner's advice also rewrites every constant body once
    before solving; any advice built by [Recalg.Plan] preserves both
    bounds byte for byte.

    Each phase evaluates only the bound it grows, plus the other bound
    where a difference subtracts it; a nested [IFP] iterates on both
    bounds, so its rounds do not depend on which one is read. *)

val constant : solution -> string -> vset
(** Raises {!Undefined_relation} for an unknown name. *)

val rounds : solution -> int
(** Outer alternating-fixpoint rounds used — benchmark instrumentation. *)

val eval :
  ?fuel:Limits.fuel ->
  ?window:Value.t ->
  ?advice:Advice.t ->
  Defs.t ->
  Db.t ->
  Expr.t ->
  vset
(** Solve, then evaluate a query expression in the solution. *)

val well_defined :
  ?fuel:Limits.fuel ->
  ?window:Value.t ->
  ?advice:Advice.t ->
  Defs.t ->
  Db.t ->
  bool
(** Whether every defined constant came out two-valued — the semi-decision
    our engine can offer for the (undecidable, Prop 3.2) initial-valid-
    model existence question, relative to the grounded universe. *)

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
    positions on [MOVE]-cycles in the WIN game (Example 3). {!solve}
    runs the alternation only where it is needed: component by
    component, and only in components that negate themselves.

    When the program is well defined (has an initial valid model, e.g. all
    IFP-algebra translations — Theorem 3.1), every queried membership is
    defined and [low = high] everywhere. *)

open Recalg_kernel

exception Undefined_relation of string
exception Recursive_definition of string

type vset = { low : Value.t; high : Value.t }
(** [low] ⊆ [high]; both canonical sets. *)

val member : vset -> Value.t -> Tvl.t
val exact : Value.t -> vset
val is_defined : vset -> bool
(** [low = high]: every membership in this set is two-valued. *)

val pp_vset : Format.formatter -> vset -> unit

type solution

val solve :
  ?fuel:Limits.fuel ->
  ?window:Value.t ->
  ?advice:Advice.t ->
  Defs.t ->
  Db.t ->
  solution
(** Solve all nullary constants. The constants' dependency graph ([n]
    depends on [m] when the defined [m] occurs in [n]'s inlined body) is
    split into strongly connected components ({!Defs.components}), which
    are solved in dependency order; a solved component's bounds are
    fixed inputs for the components above it.

    - A component none of whose members occurs negatively in a member
      body, and whose nested [IFP]s are positive
      ({!Positivity.monotone_in}), is monotone: its equations and their
      least fixpoint define the same sets (Prop 3.4), so one round
      solves it. When every lower constant it reads is two-valued, the
      round is one phase, whose result is returned physically as both
      bounds; otherwise it is a high and a low phase, with no
      alternation.
    - Any other component runs the alternating fixpoint over its own
      constants only, until its lows stop changing.
    - A constant that does not read itself is evaluated once, for both
      bounds, with no round.

    [window], when given, intersects every constant with a finite
    universe after each step — the domain-independence "window" that
    makes intentionally infinite sets (the even numbers [S^e_c])
    queryable; answers are then only meaningful for elements inside the
    window, and only when values outside the window cannot flow back in
    (true of all bundled examples).

    [advice] (default {!Advice.none}) chooses the evaluation path. Each
    phase's least fixpoint is computed, per defined constant [n = body],
    semi-naively unless the advice clears [Advice.seminaive]: iterations
    join only the delta-derived new tuples against the accumulated bound
    ({!Delta.derive}, whose differences read the other bound's change)
    when a constant of the same component occurs in the body outside
    every nested [IFP], recomputing in full otherwise (and for nested
    [IFP]s likewise, per bound). Semi-naive accumulators
    are {!Delta.Acc}s: a round interns only its delta, and the
    accumulated bound is merged when read or when the loop ends.
    [Select (p, Product _)] nodes run as hash joins on each bound the
    evaluation needs ({!Advice.fused_join}), and a [Map] over one runs
    as the join mapped through its function, which builds no pair the
    map discards. The overlays {!Advice.naive}
    and {!Advice.unfused} force the reference paths; every such path
    visits byte-identical bounds on identical iterations and spends
    identical fuel. The overlay {!Advice.unsplit} solves all constants
    as one alternating component — the engine without component order —
    and reaches byte-identical bounds, but not the same fuel: fuel
    follows the work, and [k] independent recursive components each pay
    their own iterations where one loop ran them side by side. A
    planner's advice also rewrites every constant body once before
    solving; any advice built by [Recalg.Plan] preserves both bounds
    byte for byte.

    Each phase evaluates only the bound it grows, plus the other bound
    where a difference subtracts it; an operator on defined inputs
    computes one set for both. A nested [IFP] iterates one bound when
    its free names are defined, else both, so its rounds do not depend
    on which one is read. [solve] never degrades. *)

val constant : solution -> string -> vset
(** Raises {!Undefined_relation} for an unknown name. *)

val rounds : solution -> int
(** The rounds of every component, summed: one for a positive
    component, the alternation's rounds for any other, none for a
    constant that does not read itself. Each round spends one fuel unit
    and counts one [rec_eval/round] event. *)

val query : solution -> Expr.t -> vset
(** Evaluate a query expression in a solved program: its calls are
    inlined against the solved definitions and its defined constants
    read their solved bounds. *)

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

val two_valued :
  ?fuel:Limits.fuel -> ?advice:Advice.t -> Defs.t -> Db.t -> Expr.t -> Value.t
(** {!Eval.eval}: this evaluator on defined inputs, read at the low
    bound. *)

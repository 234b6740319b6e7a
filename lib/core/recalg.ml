(** Umbrella API for the recalg library — the public face of the
    reproduction of Beeri & Milo, "On the Power of Algebras with
    Recursion" (SIGMOD 1993).

    Layers, bottom up:

    - {!Value}, {!Tvl}, {!Builtins}, {!Limits} — the kernel: complex-object
      values, three-valued logic, interpreted functions, fuel.
    - {!Datalog} — the deductive paradigm (Section 4): programs, safety,
      and the five semantics (stratified, inflationary, well-founded,
      valid, stable).
    - {!Algebra} — the algebraic paradigm (Section 3): the algebra, the
      IFP-algebra, and their recursive-definition extensions with the
      three-valued {!Algebra.Rec_eval}.
    - {!Translate} — the constructive content of Sections 5 and 6: all
      translations between the paradigms.
    - {!Spec} — algebraic specifications with negation (Section 2) and the
      valid interpretation. *)

module Value = Recalg_kernel.Value
module Tvl = Recalg_kernel.Tvl
module Builtins = Recalg_kernel.Builtins
module Limits = Recalg_kernel.Limits
module Pool = Recalg_kernel.Pool
module Faultinj = Recalg_kernel.Faultinj
module Safe_io = Recalg_kernel.Safe_io
module Zset = Recalg_kernel.Zset
module Bitset = Recalg_kernel.Bitset
module Interner = Recalg_kernel.Interner

(** Observability: spans, counters, gauges, the retained metrics
    registry and pluggable sinks. Every engine below reports through
    this layer; with no sink installed and the registry off it is a set
    of zero-cost no-ops. *)
module Obs = struct
  module Event = Recalg_obs.Event
  module Sink = Recalg_obs.Sink
  module Histogram = Recalg_obs.Histogram
  module Metrics = Recalg_obs.Metrics
  include Recalg_obs.Obs
end

module Datalog = struct
  module Dterm = Recalg_datalog.Dterm
  module Subst = Recalg_datalog.Subst
  module Literal = Recalg_datalog.Literal
  module Rule = Recalg_datalog.Rule
  module Program = Recalg_datalog.Program
  module Tuples = Recalg_datalog.Tuples
  module Edb = Recalg_datalog.Edb
  module Store = Recalg_datalog.Store
  module Safety = Recalg_datalog.Safety
  module Cardest = Recalg_datalog.Cardest
  module Stratify = Recalg_datalog.Stratify
  module Grounder = Recalg_datalog.Grounder
  module Propgm = Recalg_datalog.Propgm
  module Fixpoint = Recalg_datalog.Fixpoint
  module Seminaive = Recalg_datalog.Seminaive
  module Inflationary = Recalg_datalog.Inflationary
  module Wellfounded = Recalg_datalog.Wellfounded
  module Valid = Recalg_datalog.Valid
  module Stable = Recalg_datalog.Stable
  module Interp = Recalg_datalog.Interp
  module Incremental = Recalg_datalog.Incremental
  module Parser = Recalg_datalog.Parser
  module Run = Recalg_datalog.Run
  module Query = Recalg_datalog.Query
end

module Algebra = struct
  module Efun = Recalg_algebra.Efun
  module Pred = Recalg_algebra.Pred
  module Expr = Recalg_algebra.Expr
  module Defs = Recalg_algebra.Defs
  module Db = Recalg_algebra.Db
  module Delta = Recalg_algebra.Delta
  module Join = Recalg_algebra.Join
  module Advice = Recalg_algebra.Advice
  module Eval = Recalg_algebra.Eval
  module Rec_eval = Recalg_algebra.Rec_eval
  module Incremental = Recalg_algebra.Incremental
  module Positivity = Recalg_algebra.Positivity
  module Parser = Recalg_algebra.Parser
  module Printer = Recalg_algebra.Printer
end

(** The stats-driven cost-based planner: relation statistics, the cost
    model, and the join-order/semijoin/strategy planner producing
    {!Algebra.Advice} for the evaluators. *)
module Plan = struct
  module Stats = Recalg_plan.Stats
  module Cost = Recalg_plan.Cost
  module Planner = Recalg_plan.Planner
end

module Translate = struct
  module Alg_to_datalog = Recalg_translate.Alg_to_datalog
  module Datalog_to_alg = Recalg_translate.Datalog_to_alg
  module Inflationary_removal = Recalg_translate.Inflationary_removal
  module Ifp_elim = Recalg_translate.Ifp_elim
  module Di_to_safe = Recalg_translate.Di_to_safe
  module Di_check = Recalg_translate.Di_check
  module Witness = Recalg_translate.Witness
  module Stratified_to_ifp = Recalg_translate.Stratified_to_ifp
end

module Spec = struct
  module Signature = Recalg_spec.Signature
  module Term = Recalg_spec.Term
  module Equation = Recalg_spec.Equation
  module Spec = Recalg_spec.Spec
  module Deductive = Recalg_spec.Deductive
  module Initial_valid = Recalg_spec.Initial_valid
  module Rewrite = Recalg_spec.Rewrite
  module Parameterized = Recalg_spec.Parameterized
  module Prelude = Recalg_spec.Prelude
end

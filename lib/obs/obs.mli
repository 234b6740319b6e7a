(** Engine-wide observability front end.

    Every evaluator in the repository reports through this module:
    nestable timed {!Span}s for phases (a whole [valid] solve, one
    alternating-fixpoint round, one grounding), monotone {!Counter}s for
    per-iteration quantities (delta sizes, derived-fact counts, join
    build/probe volumes, index hits) and sampled {!Gauge}s. Span names
    are fixed strings, so the set of span paths is bounded by the code,
    not by the data: every round of a fixpoint shares one [round] path,
    and the round index lives in the engine's own counter.

    Emissions have two consumers. The retained {!Metrics} registry is
    the one aggregator: whenever it is collecting it records every span,
    counter and gauge, giving latency histograms and per-phase resource
    attribution ([--profile], [--metrics], [recalg report] and the bench
    all read it). The installed {!Sink.t} receives the raw event stream
    — the per-event timeline with span ids that [--trace] writes.

    {b Zero-cost-when-off invariant.} With no sink installed and the
    metrics registry off (the default), every entry point
    short-circuits on a flag load: no event is built, no payload thunk
    is forced, no string is concatenated, no allocation happens beyond
    the caller's own closure. Engine results and fuel spend are
    identical with and without instrumentation — it observes, it never
    steers.

    {b Fuel context.} While the front end is live, the active span path
    (e.g. ["run.valid > valid > round"]) is attached to
    {!Recalg_kernel.Limits.Diverged} messages, so a blown budget says
    where it died. When disabled the message is byte-identical to the
    uninstrumented one. *)

val enabled : unit -> bool
(** [true] iff the front end is live: a sink is installed or
    {!Metrics.collecting} is on. Call sites guard expensive payload
    computations (e.g. a [Value.cardinal]) behind this. *)

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Install [s], run the thunk, flush [s], restore the previous sink
    (also on exceptions). The relative event clock restarts at 0 when
    installing over the disabled state. *)

val path : unit -> string
(** The active span path, components joined with [" > "]; [""] outside
    any span. *)

module Span : sig
  val run : string -> (unit -> 'a) -> 'a
  (** [run name f] emits [Span_begin]/[Span_end] around [f], pushing
      [name] onto the span path; when disabled it is exactly [f ()]. *)
end

module Counter : sig
  val emit : string -> int -> unit
  (** Record an increment of a monotone metric; no-op when disabled. *)

  val emitf : string -> (unit -> int) -> unit
  (** Lazy variant: the increment thunk is only forced when the front
      end is live — use when computing it costs more than a field
      read. *)
end

module Gauge : sig
  val emit : string -> float -> unit
  (** Record a sample of a level metric; no-op when disabled. *)
end

(** Aliases for the common emissions, so call sites stay short. *)

val span : string -> (unit -> 'a) -> 'a
val count : string -> int -> unit
val countf : string -> (unit -> int) -> unit
val gauge : string -> float -> unit

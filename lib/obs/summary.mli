(** Aggregating sink: the EXPLAIN-style profile.

    Feeding a run's events through [sink t] folds them into per-name
    aggregates — span call counts and wall-clock totals, counter event
    counts / totals / maxima (and the full per-event series, for
    per-iteration plots), gauge sample counts and extrema — which {!pp}
    renders as an aligned table, the CLI's [--profile] output. *)

type t

val create : unit -> t
val sink : t -> Sink.t

val span_calls : t -> string -> int
(** Completed invocations of the span ([0] if never seen). *)

val span_total_ms : t -> string -> float

val span_min_ms : t -> string -> float
(** Shortest single invocation ([0.] if never seen). *)

val span_max_ms : t -> string -> float
(** Longest single invocation ([0.] if never seen). *)

val span_mean_ms : t -> string -> float
(** [total_ms / calls] ([0.] if never seen) — with {!span_min_ms} and
    {!span_max_ms} this gives EXPLAIN output and the planner's sampling
    pass a variance picture, not just totals. *)

val span_quantile_ms : t -> string -> float -> float
(** Exact nearest-rank quantile over the span's full duration series
    ([0.] if never seen) — p50/p90/p99 in the EXPLAIN table. *)

val counter_events : t -> string -> int
(** Number of emissions of the counter — e.g. the number of fixpoint
    iterations when the engine emits one delta-size count per round. *)

val counter_total : t -> string -> int
(** Sum of the emitted increments. *)

val counter_max : t -> string -> int
(** Largest single emitted increment ([0] if never seen) — e.g. the peak
    intermediate cardinality when the engine emits one [join/out] count
    per join. *)

val counter_series : t -> string -> int list
(** The emitted increments in emission order — e.g. the per-iteration
    delta sizes of a semi-naive run. *)

val counter_quantile : t -> string -> float -> int
(** Exact nearest-rank quantile of the emitted increments ([0] if never
    seen). *)

val gauge_samples : t -> string -> int
val gauge_last : t -> string -> float option
val gauge_max : t -> string -> float option

val pp : Format.formatter -> t -> unit
(** The EXPLAIN-style table: one section for spans, one for counters,
    one for gauges; names sorted, so output is deterministic up to
    timings. *)

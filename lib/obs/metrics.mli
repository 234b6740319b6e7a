(** The always-available retained metrics registry — the one place
    emissions are aggregated. [--profile], [--metrics], [recalg report]
    and the bench's [obs] blocks all read a {!snapshot} of it.

    The event stream ({!Sink}) is transient: spans and counters vanish
    unless a sink is attached. This registry retains them — atomic-ish
    counters, gauges, and log-linear {!Histogram}s for span latencies
    and counter increments — together with per-phase {e resource
    attribution}: every completed span adds its wall time, the fuel it
    spent (two pure reads of the ambient
    {!Recalg_kernel.Limits.active_remaining} budget), and the GC words
    it allocated, keyed by the full span path. It keeps distributions,
    not sequences: a per-round series needs a {!Sink.memory} beside it.

    {b Sharding.} State is sharded per domain ([Domain.DLS]); the hot
    path takes no lock. Shards register themselves in a mutex-protected
    global list and {!snapshot} merges them on read (histogram merge is
    associative and commutative, so shard order is irrelevant). Writes
    are domain-local; take snapshots on a quiesced registry — after
    parallel regions have completed — as the CLI and bench drivers do.

    {b Zero interference.} Collection is gated by one atomic flag,
    default off. With it on, engine results and fuel spend are
    byte-identical to a collection-off run (QCheck-verified): the
    registry observes, it never steers. *)

type snapshot

val collecting : unit -> bool
(** Whether the registry is recording. Default [false]. *)

val set_collecting : bool -> unit

val with_collecting : (unit -> 'a) -> 'a
(** Enable collection for the duration of the thunk, restoring the
    previous state afterwards (exceptions included). *)

val reset : unit -> unit
(** Clear every shard. Call on a quiesced registry. *)

(** {2 Recording} — called by the {!Obs} front end, not engines. *)

val record_count : string -> int -> unit
val record_gauge : string -> float -> unit

val record_span :
  string -> ms:float -> fuel:int -> alloc_words:float -> unit
(** Attribute one completed span occurrence to its full path. *)

(** {2 Reading} *)

val snapshot : unit -> snapshot
(** Merge all shards into an immutable view. *)

val counter_events : snapshot -> string -> int
val counter_total : snapshot -> string -> int

val counter_quantile : snapshot -> string -> float -> int
(** Histogram quantile of the counter's emitted increments (bounded
    relative error, see {!Histogram.quantile}); [1.] gives the largest
    increment exactly. *)

val gauge_samples : snapshot -> string -> int
val gauge_last : snapshot -> string -> float option
val gauge_max : snapshot -> string -> float option

val fold_spans :
  (string ->
  calls:int ->
  wall_ms:float ->
  fuel:int ->
  alloc_words:float ->
  'a ->
  'a) ->
  snapshot ->
  'a ->
  'a
(** Fold over all span paths — how the bench driver embeds a metrics
    block in its JSON records. *)

val span_calls : snapshot -> string -> int
val span_fuel : snapshot -> string -> int
val span_quantile_ms : snapshot -> string -> float -> float

(** {2 Rendering} *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition: [recalg_counter_total]/[_events],
    [recalg_gauge], per-span fuel/allocation counters, and span
    latencies as genuine cumulative histograms
    ([recalg_span_latency_us_bucket{..,le=".."}] ending at [+Inf], with
    [_sum] and [_count]). *)

val to_json : snapshot -> string
(** One JSON object with sorted [counters], [gauges] and [spans] arrays
    (each span row carries calls, wall_ms, fuel, alloc_words and
    p50/p90/p99/max latencies in ms). *)

val pp_report : ?top:int -> Format.formatter -> snapshot -> unit
(** The [recalg report] and [--profile] rendering: top [top] (default
    12) phases by wall time and by fuel with p50/p90/p99 latency
    quantiles, then the counter distributions and gauges. *)

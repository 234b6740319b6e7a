(* The always-available retained metrics registry.

   Unlike the event stream (which vanishes unless a sink is attached),
   the registry accumulates counters, gauges, span-latency histograms
   and per-phase resource attribution for the lifetime of the process,
   gated by one atomic [collecting] flag. State is sharded per domain:
   each domain records into its own shard (reached through [Domain.DLS],
   so the hot path takes no lock), shards register themselves in a
   mutex-protected global list on first use, and every read merges the
   shards into a fresh snapshot. Writes are domain-local and reads are
   expected on a quiesced registry (after parallel regions complete), so
   the registry composes with the work pool without perturbing it — the
   same zero-interference contract as the rest of the obs layer: results
   and fuel are byte-identical with collection on or off. *)

type counter = {
  mutable c_events : int;
  mutable c_total : int;
  c_hist : Histogram.t;  (* distribution of the emitted increments *)
}

type gauge = {
  mutable g_samples : int;
  mutable g_last : float;
  mutable g_max : float;
  mutable g_seq : int;  (* global write stamp: merge keeps the latest [last] *)
}

type span = {
  mutable s_calls : int;
  s_lat : Histogram.t;  (* latency in microseconds *)
  mutable s_wall_ms : float;
  mutable s_fuel : int;
  mutable s_alloc_w : float;  (* Gc-allocated words, domain-local deltas *)
}

type shard = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  spans : (string, span) Hashtbl.t;
}

let collecting_flag = Atomic.make false
let collecting () = Atomic.get collecting_flag
let set_collecting b = Atomic.set collecting_flag b

let with_collecting f =
  let was = Atomic.get collecting_flag in
  Atomic.set collecting_flag true;
  Fun.protect ~finally:(fun () -> Atomic.set collecting_flag was) f

let registry_lock = Mutex.create ()
let shards : shard list ref = ref []
let gauge_seq = Atomic.make 0

let new_shard () =
  let s =
    { counters = Hashtbl.create 32;
      gauges = Hashtbl.create 16;
      spans = Hashtbl.create 32 }
  in
  Mutex.lock registry_lock;
  shards := s :: !shards;
  Mutex.unlock registry_lock;
  s

let shard_key : shard Domain.DLS.key = Domain.DLS.new_key new_shard
let shard () = Domain.DLS.get shard_key

let reset () =
  Mutex.lock registry_lock;
  List.iter
    (fun s ->
      Hashtbl.reset s.counters;
      Hashtbl.reset s.gauges;
      Hashtbl.reset s.spans)
    !shards;
  Mutex.unlock registry_lock

let find tbl mk name =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
    let v = mk () in
    Hashtbl.add tbl name v;
    v

let record_count name n =
  let c =
    find (shard ()).counters
      (fun () -> { c_events = 0; c_total = 0; c_hist = Histogram.create () })
      name
  in
  c.c_events <- c.c_events + 1;
  c.c_total <- c.c_total + n;
  Histogram.record c.c_hist n

let record_gauge name value =
  let g =
    find (shard ()).gauges
      (fun () -> { g_samples = 0; g_last = 0.; g_max = neg_infinity; g_seq = 0 })
      name
  in
  g.g_samples <- g.g_samples + 1;
  g.g_last <- value;
  g.g_seq <- Atomic.fetch_and_add gauge_seq 1;
  if value > g.g_max then g.g_max <- value

let record_span path ~ms ~fuel ~alloc_words =
  let s =
    find (shard ()).spans
      (fun () ->
        { s_calls = 0;
          s_lat = Histogram.create ();
          s_wall_ms = 0.;
          s_fuel = 0;
          s_alloc_w = 0. })
      path
  in
  s.s_calls <- s.s_calls + 1;
  Histogram.record s.s_lat (int_of_float (ms *. 1000.));
  s.s_wall_ms <- s.s_wall_ms +. ms;
  s.s_fuel <- s.s_fuel + fuel;
  s.s_alloc_w <- s.s_alloc_w +. alloc_words

(* ------------------------------------------------------------------ *)
(* Snapshots: merge the shards into fresh tables. Histogram merges are
   associative and commutative, so shard order is irrelevant; gauge
   [last] is resolved by the global write stamp. *)

type snapshot = {
  sn_counters : (string, counter) Hashtbl.t;
  sn_gauges : (string, gauge) Hashtbl.t;
  sn_spans : (string, span) Hashtbl.t;
}

let snapshot () =
  let sn =
    { sn_counters = Hashtbl.create 32;
      sn_gauges = Hashtbl.create 16;
      sn_spans = Hashtbl.create 32 }
  in
  Mutex.lock registry_lock;
  let all = !shards in
  Mutex.unlock registry_lock;
  List.iter
    (fun sh ->
      Hashtbl.iter
        (fun name c ->
          let acc =
            find sn.sn_counters
              (fun () ->
                { c_events = 0; c_total = 0; c_hist = Histogram.create () })
              name
          in
          acc.c_events <- acc.c_events + c.c_events;
          acc.c_total <- acc.c_total + c.c_total;
          Histogram.merge_into ~into:acc.c_hist c.c_hist)
        sh.counters;
      Hashtbl.iter
        (fun name g ->
          let acc =
            find sn.sn_gauges
              (fun () ->
                { g_samples = 0; g_last = 0.; g_max = neg_infinity; g_seq = -1 })
              name
          in
          acc.g_samples <- acc.g_samples + g.g_samples;
          if g.g_seq >= acc.g_seq then begin
            acc.g_last <- g.g_last;
            acc.g_seq <- g.g_seq
          end;
          if g.g_max > acc.g_max then acc.g_max <- g.g_max)
        sh.gauges;
      Hashtbl.iter
        (fun path s ->
          let acc =
            find sn.sn_spans
              (fun () ->
                { s_calls = 0;
                  s_lat = Histogram.create ();
                  s_wall_ms = 0.;
                  s_fuel = 0;
                  s_alloc_w = 0. })
              path
          in
          acc.s_calls <- acc.s_calls + s.s_calls;
          Histogram.merge_into ~into:acc.s_lat s.s_lat;
          acc.s_wall_ms <- acc.s_wall_ms +. s.s_wall_ms;
          acc.s_fuel <- acc.s_fuel + s.s_fuel;
          acc.s_alloc_w <- acc.s_alloc_w +. s.s_alloc_w)
        sh.spans)
    all;
  sn

(* ------------------------------------------------------------------ *)
(* Accessors. *)

let counter_events sn name =
  match Hashtbl.find_opt sn.sn_counters name with
  | Some c -> c.c_events
  | None -> 0

let counter_total sn name =
  match Hashtbl.find_opt sn.sn_counters name with
  | Some c -> c.c_total
  | None -> 0

let counter_quantile sn name q =
  match Hashtbl.find_opt sn.sn_counters name with
  | Some c -> Histogram.quantile c.c_hist q
  | None -> 0

let gauge_samples sn name =
  match Hashtbl.find_opt sn.sn_gauges name with Some g -> g.g_samples | None -> 0

let gauge_last sn name =
  match Hashtbl.find_opt sn.sn_gauges name with
  | Some g when g.g_samples > 0 -> Some g.g_last
  | Some _ | None -> None

let gauge_max sn name =
  match Hashtbl.find_opt sn.sn_gauges name with
  | Some g when g.g_samples > 0 -> Some g.g_max
  | Some _ | None -> None

let fold_spans f sn acc =
  Hashtbl.fold
    (fun path s acc ->
      f path ~calls:s.s_calls ~wall_ms:s.s_wall_ms ~fuel:s.s_fuel
        ~alloc_words:s.s_alloc_w acc)
    sn.sn_spans acc

let span_calls sn path =
  match Hashtbl.find_opt sn.sn_spans path with Some s -> s.s_calls | None -> 0

let span_wall_ms sn path =
  match Hashtbl.find_opt sn.sn_spans path with Some s -> s.s_wall_ms | None -> 0.

let span_fuel sn path =
  match Hashtbl.find_opt sn.sn_spans path with Some s -> s.s_fuel | None -> 0

let span_alloc_words sn path =
  match Hashtbl.find_opt sn.sn_spans path with Some s -> s.s_alloc_w | None -> 0.

let span_quantile_ms sn path q =
  match Hashtbl.find_opt sn.sn_spans path with
  | Some s -> float_of_int (Histogram.quantile s.s_lat q) /. 1000.
  | None -> 0.

let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition. Span latencies are emitted as real
   cumulative histograms ([_bucket]/[_sum]/[_count] with an [+Inf]
   bound); everything else as counters and gauges. *)

let escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_prometheus sn =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# TYPE recalg_counter_total counter";
  line "# TYPE recalg_counter_events counter";
  List.iter
    (fun (name, c) ->
      let l = escape_label name in
      line "recalg_counter_total{name=\"%s\"} %d" l c.c_total;
      line "recalg_counter_events{name=\"%s\"} %d" l c.c_events)
    (sorted sn.sn_counters);
  line "# TYPE recalg_gauge gauge";
  List.iter
    (fun (name, g) ->
      line "recalg_gauge{name=\"%s\"} %.6f" (escape_label name) g.g_last)
    (sorted sn.sn_gauges);
  line "# TYPE recalg_span_fuel_total counter";
  line "# TYPE recalg_span_alloc_words_total counter";
  line "# TYPE recalg_span_latency_us histogram";
  List.iter
    (fun (path, s) ->
      let l = escape_label path in
      line "recalg_span_fuel_total{span=\"%s\"} %d" l s.s_fuel;
      line "recalg_span_alloc_words_total{span=\"%s\"} %.0f" l s.s_alloc_w;
      let cum = ref 0 in
      Histogram.fold
        (fun ~low:_ ~high ~count () ->
          cum := !cum + count;
          line "recalg_span_latency_us_bucket{span=\"%s\",le=\"%d\"} %d" l high
            !cum)
        s.s_lat ();
      line "recalg_span_latency_us_bucket{span=\"%s\",le=\"+Inf\"} %d" l
        (Histogram.count s.s_lat);
      line "recalg_span_latency_us_sum{span=\"%s\"} %d" l (Histogram.total s.s_lat);
      line "recalg_span_latency_us_count{span=\"%s\"} %d" l
        (Histogram.count s.s_lat))
    (sorted sn.sn_spans);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON snapshot: one object with sorted [counters], [gauges] and
   [spans] arrays — the machine face of the registry, written next to
   the Prometheus exposition by [--metrics]. *)

let to_json sn =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sep = ref "" in
  let item fmt =
    Buffer.add_string buf !sep;
    sep := ",\n    ";
    Printf.ksprintf (Buffer.add_string buf) fmt
  in
  add "{\n  \"counters\": [\n    ";
  sep := "";
  List.iter
    (fun (name, c) ->
      item
        "{\"name\": \"%s\", \"events\": %d, \"total\": %d, \"p50\": %d, \"p90\": \
         %d, \"p99\": %d, \"max\": %d}"
        (Event.escape name) c.c_events c.c_total
        (Histogram.quantile c.c_hist 0.5)
        (Histogram.quantile c.c_hist 0.9)
        (Histogram.quantile c.c_hist 0.99)
        (Histogram.max_value c.c_hist))
    (sorted sn.sn_counters);
  add "\n  ],\n  \"gauges\": [\n    ";
  sep := "";
  List.iter
    (fun (name, g) ->
      item "{\"name\": \"%s\", \"samples\": %d, \"last\": %.6f, \"max\": %.6f}"
        (Event.escape name) g.g_samples g.g_last g.g_max)
    (sorted sn.sn_gauges);
  add "\n  ],\n  \"spans\": [\n    ";
  sep := "";
  List.iter
    (fun (path, s) ->
      item
        "{\"span\": \"%s\", \"calls\": %d, \"wall_ms\": %.4f, \"fuel\": %d, \
         \"alloc_words\": %.0f, \"p50_ms\": %.4f, \"p90_ms\": %.4f, \"p99_ms\": \
         %.4f, \"max_ms\": %.4f}"
        (Event.escape path) s.s_calls s.s_wall_ms s.s_fuel s.s_alloc_w
        (float_of_int (Histogram.quantile s.s_lat 0.5) /. 1000.)
        (float_of_int (Histogram.quantile s.s_lat 0.9) /. 1000.)
        (float_of_int (Histogram.quantile s.s_lat 0.99) /. 1000.)
        (float_of_int (Histogram.max_value s.s_lat) /. 1000.))
    (sorted sn.sn_spans);
  add "\n  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The human report: top phases by wall time and by fuel, with p50/p90/
   p99 latency quantiles, then the counter distributions. *)

let top_spans sn ~by n =
  let weight (_, s) =
    match by with `Time -> s.s_wall_ms | `Fuel -> float_of_int s.s_fuel
  in
  let all =
    List.sort
      (fun a b ->
        match Float.compare (weight b) (weight a) with
        | 0 -> String.compare (fst a) (fst b)
        | c -> c)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sn.sn_spans [])
  in
  List.filteri (fun i _ -> i < n) all

let pp_span_table ppf rows =
  Fmt.pf ppf "%-52s %7s %11s %9s %9s %9s %11s %10s@." "span" "calls" "wall ms"
    "p50 ms" "p90 ms" "p99 ms" "fuel" "alloc kw";
  List.iter
    (fun (path, s) ->
      let q p = float_of_int (Histogram.quantile s.s_lat p) /. 1000. in
      Fmt.pf ppf "%-52s %7d %11.3f %9.3f %9.3f %9.3f %11d %10.1f@." path
        s.s_calls s.s_wall_ms (q 0.5) (q 0.9) (q 0.99) s.s_fuel
        (s.s_alloc_w /. 1000.))
    rows

let pp_report ?(top = 12) ppf sn =
  Fmt.pf ppf "== metrics report ==@.";
  if Hashtbl.length sn.sn_spans = 0 then Fmt.pf ppf "no spans recorded@."
  else begin
    Fmt.pf ppf "-- top phases by wall time --@.";
    pp_span_table ppf (top_spans sn ~by:`Time top);
    Fmt.pf ppf "-- top phases by fuel --@.";
    pp_span_table ppf (top_spans sn ~by:`Fuel top)
  end;
  if Hashtbl.length sn.sn_counters > 0 then begin
    Fmt.pf ppf "-- counters --@.";
    Fmt.pf ppf "%-52s %8s %12s %8s %8s %8s %10s@." "counter" "events" "total"
      "p50" "p90" "p99" "max";
    List.iter
      (fun (name, c) ->
        Fmt.pf ppf "%-52s %8d %12d %8d %8d %8d %10d@." name c.c_events c.c_total
          (Histogram.quantile c.c_hist 0.5)
          (Histogram.quantile c.c_hist 0.9)
          (Histogram.quantile c.c_hist 0.99)
          (Histogram.max_value c.c_hist))
      (sorted sn.sn_counters)
  end;
  if Hashtbl.length sn.sn_gauges > 0 then begin
    Fmt.pf ppf "-- gauges --@.";
    Fmt.pf ppf "%-52s %8s %12s %12s@." "gauge" "samples" "last" "max";
    List.iter
      (fun (name, g) ->
        Fmt.pf ppf "%-52s %8d %12.3f %12.3f@." name g.g_samples g.g_last g.g_max)
      (sorted sn.sn_gauges)
  end

type span_stat = {
  mutable calls : int;
  mutable total_ms : float;
  mutable min_ms : float;
  mutable max_ms : float;
  mutable ms_rev : float list;  (* full series, for exact quantiles *)
}

type counter_stat = {
  mutable events : int;
  mutable total : int;
  mutable max_n : int;
  mutable series_rev : int list;
}

type gauge_stat = {
  mutable samples : int;
  mutable last : float;
  mutable max_v : float;
}

type t = {
  spans : (string, span_stat) Hashtbl.t;
  counters : (string, counter_stat) Hashtbl.t;
  gauges : (string, gauge_stat) Hashtbl.t;
}

let create () =
  { spans = Hashtbl.create 16; counters = Hashtbl.create 16; gauges = Hashtbl.create 8 }

let find tbl mk name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
    let s = mk () in
    Hashtbl.add tbl name s;
    s

let sink t =
  let emit e =
    match e with
    | Event.Span_begin _ -> ()
    | Event.Span_end { span; ms; _ } ->
      let s =
        find t.spans
          (fun () ->
            { calls = 0; total_ms = 0.; min_ms = infinity; max_ms = 0.; ms_rev = [] })
          span
      in
      s.calls <- s.calls + 1;
      s.total_ms <- s.total_ms +. ms;
      if ms < s.min_ms then s.min_ms <- ms;
      if ms > s.max_ms then s.max_ms <- ms;
      s.ms_rev <- ms :: s.ms_rev
    | Event.Count { counter; n; _ } ->
      let c =
        find t.counters
          (fun () -> { events = 0; total = 0; max_n = min_int; series_rev = [] })
          counter
      in
      c.events <- c.events + 1;
      c.total <- c.total + n;
      if n > c.max_n then c.max_n <- n;
      c.series_rev <- n :: c.series_rev
    | Event.Gauge { counter; value; _ } ->
      let g =
        find t.gauges
          (fun () -> { samples = 0; last = 0.; max_v = neg_infinity })
          counter
      in
      g.samples <- g.samples + 1;
      g.last <- value;
      if value > g.max_v then g.max_v <- value
  in
  { Sink.emit; flush = ignore }

let span_calls t name =
  match Hashtbl.find_opt t.spans name with Some s -> s.calls | None -> 0

let span_total_ms t name =
  match Hashtbl.find_opt t.spans name with Some s -> s.total_ms | None -> 0.

let span_min_ms t name =
  match Hashtbl.find_opt t.spans name with
  | Some s when s.calls > 0 -> s.min_ms
  | Some _ | None -> 0.

let span_max_ms t name =
  match Hashtbl.find_opt t.spans name with Some s -> s.max_ms | None -> 0.

let span_mean_ms t name =
  match Hashtbl.find_opt t.spans name with
  | Some s when s.calls > 0 -> s.total_ms /. float_of_int s.calls
  | Some _ | None -> 0.

(* Exact nearest-rank quantiles over the retained series — small enough
   (one entry per span call / counter emission) that sorting on demand
   beats maintaining order. *)
let span_quantile_ms t name q =
  match Hashtbl.find_opt t.spans name with
  | Some s when s.calls > 0 -> Histogram.exact_quantile s.ms_rev q
  | Some _ | None -> 0.

let counter_events t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.events | None -> 0

let counter_total t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.total | None -> 0

let counter_max t name =
  match Hashtbl.find_opt t.counters name with
  | Some c when c.events > 0 -> c.max_n
  | Some _ | None -> 0

let counter_series t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> List.rev c.series_rev
  | None -> []

let counter_quantile t name q =
  match Hashtbl.find_opt t.counters name with
  | Some c when c.events > 0 ->
    int_of_float
      (Histogram.exact_quantile (List.map float_of_int c.series_rev) q)
  | Some _ | None -> 0

let gauge_samples t name =
  match Hashtbl.find_opt t.gauges name with Some g -> g.samples | None -> 0

let gauge_last t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g when g.samples > 0 -> Some g.last
  | Some _ | None -> None

let gauge_max t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g when g.samples > 0 -> Some g.max_v
  | Some _ | None -> None

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let pp ppf t =
  let spans = sorted_bindings t.spans in
  let counters = sorted_bindings t.counters in
  let gauges = sorted_bindings t.gauges in
  Fmt.pf ppf "== obs profile ==@.";
  if spans <> [] then begin
    Fmt.pf ppf "%-44s %8s %12s %10s %10s %10s %10s %10s %10s@." "span" "calls"
      "total ms" "min ms" "mean ms" "p50 ms" "p90 ms" "p99 ms" "max ms";
    List.iter
      (fun (name, s) ->
        let min_ms = if s.calls > 0 then s.min_ms else 0. in
        let mean_ms = if s.calls > 0 then s.total_ms /. float_of_int s.calls else 0. in
        let q p = if s.calls > 0 then Histogram.exact_quantile s.ms_rev p else 0. in
        Fmt.pf ppf "%-44s %8d %12.3f %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f@."
          name s.calls s.total_ms min_ms mean_ms (q 0.5) (q 0.9) (q 0.99) s.max_ms)
      spans
  end;
  if counters <> [] then begin
    Fmt.pf ppf "%-44s %8s %12s %8s %8s %8s %12s@." "counter" "events" "total"
      "p50" "p90" "p99" "max";
    List.iter
      (fun (name, c) ->
        let q p =
          if c.events > 0 then
            int_of_float
              (Histogram.exact_quantile (List.map float_of_int c.series_rev) p)
          else 0
        in
        Fmt.pf ppf "%-44s %8d %12d %8d %8d %8d %12d@." name c.events c.total
          (q 0.5) (q 0.9) (q 0.99) c.max_n)
      counters
  end;
  if gauges <> [] then begin
    Fmt.pf ppf "%-44s %8s %12s %12s@." "gauge" "samples" "last" "max";
    List.iter
      (fun (name, g) ->
        Fmt.pf ppf "%-44s %8d %12.3f %12.3f@." name g.samples g.last g.max_v)
      gauges
  end

(* Arguments shared by the evaluating subcommands (run, alg, query):
   the fuel budget, the planner knobs, plus the three reporting
   switches (--trace, --profile, --metrics). Declared once so every
   subcommand documents and parses them identically. *)

open Recalg
open Cmdliner

type t = {
  fuel : int;
  timeout_ms : int option;
  memory_limit_mb : int option;
  degrade : bool;
  trace : string option;
  profile : bool;
  domains : int;
  plan : Plan.Planner.mode;
  stats_file : string option;
  metrics : string option;
}

let default_domains () =
  match Sys.getenv_opt "RECALG_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> 1)
  | None -> 1

let term =
  let fuel =
    Arg.(value & opt int 1_000_000 & info [ "fuel" ] ~doc:"Evaluation step budget.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout" ] ~docv:"MS"
          ~doc:
            "Wall-clock deadline for the whole evaluation, in \
             milliseconds. Exceeding it aborts with a structured \
             resource error and exit code 4. Checked at fixpoint-round \
             and pool-task boundaries and every 64th fuel tick.")
  in
  let memory_limit_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "memory-limit" ] ~docv:"MB"
          ~doc:
            "Major-heap ceiling, in megabytes (measured via \
             $(b,Gc.quick_stat), so garbage not yet collected counts). \
             Exceeding it aborts with exit code 5.")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Graceful degradation: when a resource limit trips inside a \
             monotone fixpoint (IFP, semi-naive), return the facts \
             derived so far — a sound under-approximation, explicitly \
             marked incomplete on stderr — instead of discarding them. \
             The exit code still reports the exhausted resource.")
  in
  let domains =
    Arg.(
      value
      & opt int (default_domains ())
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Evaluate with $(docv) worker domains: the independent \
             components of a stratum run as parallel tasks. Results and \
             fuel are byte-identical at every domain count; the default \
             is $(b,RECALG_DOMAINS) or 1 (sequential).")
  in
  let plan =
    let parse =
      Arg.enum [ ("off", Plan.Planner.Off); ("cost", Plan.Planner.Cost) ]
    in
    Arg.(
      value & opt parse Plan.Planner.Off
      & info [ "plan" ] ~docv:"MODE"
          ~doc:
            "Query planning: $(b,off) evaluates expressions as written; \
             $(b,cost) reorders multiway joins by exact \
             dynamic-programming search (up to 8 relations, greedy \
             left-deep above), adds semijoin reducers under projections, \
             and re-plans a fixpoint body at a round boundary when the \
             cardinalities it observes drift from the estimates. It \
             changes only which expression runs; how each operator runs \
             is the evaluator's choice in both modes. Results are \
             byte-identical in both modes.")
  in
  let stats_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-file" ] ~docv:"FILE"
          ~doc:
            "Persist planner statistics across runs: load $(docv) before \
             evaluation (entries whose fingerprint contradicts the live \
             database are dropped), and rewrite it from the live \
             relations afterwards. Missing or unreadable files degrade \
             to no stats.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write an observability trace to $(docv) as JSON Lines: one \
             event per line for every span, counter and gauge the engines \
             report.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Collect retained metrics during the run and print them to \
             stderr afterwards, in the $(b,recalg report) layout: the \
             top phases by wall time and by fuel with p50/p90/p99 \
             latency quantiles, the counter distributions (fixpoint \
             iterations, join volumes, hash-consing hits and misses) \
             and the gauges. On $(b,alg) with $(b,--plan) $(b,cost) it \
             also prints the planner's EXPLAIN blocks. Results and fuel \
             are byte-identical with or without it.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect retained metrics (counters, gauges, latency \
             histograms, per-phase fuel and allocation attribution) \
             during the run and write a Prometheus text exposition to \
             $(docv) plus a JSON snapshot to $(docv).json. Collection \
             observes without steering: results and fuel are \
             byte-identical with or without it.")
  in
  let make fuel timeout_ms memory_limit_mb degrade trace profile domains plan
      stats_file metrics =
    {
      fuel;
      timeout_ms;
      memory_limit_mb;
      degrade;
      trace;
      profile;
      domains;
      plan;
      stats_file;
      metrics;
    }
  in
  Term.(
    const make $ fuel $ timeout_ms $ memory_limit_mb $ degrade $ trace
    $ profile $ domains $ plan $ stats_file $ metrics)

(* Plain fuel stays on the historical zero-overhead path; any governance
   knob upgrades the budget to a governed one. *)
let fuel_of t =
  match t.timeout_ms, t.memory_limit_mb, t.degrade with
  | None, None, false -> Limits.of_int t.fuel
  | _ ->
    Limits.governed ~fuel:t.fuel ?timeout_ms:t.timeout_ms
      ?memory_limit_mb:t.memory_limit_mb ~degrade:t.degrade ()

(* The planner for an algebra evaluation over [db]: stats come from the
   persisted file when one is given (stale entries pruned against the
   live database) merged under a fresh sampling pass. *)
let planner_of t db =
  let sampled = Plan.Stats.of_db db in
  let stats =
    match t.stats_file with
    | None -> sampled
    | Some file -> (
      match Plan.Stats.load file with
      | None -> sampled
      | Some persisted ->
        Plan.Stats.merge (Plan.Stats.prune_stale db persisted) sampled)
  in
  Plan.Planner.create ~stats t.plan

(* Rewrite the stats file from the relations the run actually saw. *)
let save_stats t db =
  match t.stats_file with
  | None -> ()
  | Some file -> Plan.Stats.save file (Plan.Stats.of_db db)

let report_plan t planner =
  if t.profile && t.plan <> Plan.Planner.Off then
    Fmt.epr "%a" Plan.Planner.pp_reports (Plan.Planner.reports planner)

(* Exit-code contract (documented in the README): parse errors exit 2
   before evaluation starts; resource exhaustion maps fuel -> 3,
   deadline -> 4, and cancellation/memory -> 5. *)
let exit_code = function
  | Limits.Fuel -> 3
  | Limits.Deadline -> 4
  | Limits.Memory | Limits.Cancelled -> 5

(* Run [f] — which receives the budget built from [t] — with whatever
   reporting [t] asks for, on the pool size [t] requests (the workers
   are joined at process exit). A sink is always installed (null unless
   --trace asked for a file) so the obs layer tracks span paths and a
   resource error can say where it died. --profile and --metrics both
   turn the metrics registry on, and one snapshot taken after the run
   feeds the metrics files and the profile table. The budget is
   installed as the ambient one, extending deadline/cancellation checks
   to pool tasks and join partitions. Resource errors are caught here,
   reported, and turned into the documented exit codes — after the
   trace file (written via tmp + rename) has been completed, so an
   aborted run still leaves a whole, readable trace. An unsafe program
   exits 1, as the verbs that check safety up front do. *)
let with_reporting t f =
  Pool.set_domains t.domains;
  let fuel = fuel_of t in
  let code = ref 0 in
  let go sink =
    Datalog.Run.with_obs sink @@ fun () ->
    try Limits.with_active fuel (fun () -> f fuel) with
    | (Limits.Diverged _ | Limits.Resource_exhausted _) as e ->
      Fmt.epr "error: %s@."
        (Option.value (Limits.describe e) ~default:(Printexc.to_string e));
      code :=
        (match e with
        | Limits.Resource_exhausted { kind; _ } -> exit_code kind
        | _ -> exit_code Limits.Fuel)
    | Datalog.Store.Unsafe msg | Translate.Datalog_to_alg.Untranslatable msg ->
      (* A rule body with no evaluable order: the grounder, the
         relational engine and the translation all find it lazily. *)
      Fmt.epr "error: unsafe program: %s@." msg;
      code := 1
    | Faultinj.Injected { site; hit } ->
      (* Chaos runs (RECALG_FAULTS) die cleanly like any other abort:
         state already rolled back by the engines, trace file completed
         below, generic failure exit. *)
      Fmt.epr "error: injected fault at %s (hit %d)@." site hit;
      code := 1
  in
  let collect = t.profile || t.metrics <> None in
  if collect then begin
    Obs.Metrics.reset ();
    Obs.Metrics.set_collecting true
  end;
  (match t.trace with
  | None -> go Obs.Sink.null
  | Some path -> Safe_io.with_file path (fun oc -> go (Obs.Sink.jsonl oc)));
  (* Metrics files are written after the run (and after the trace file
     is complete), from a quiesced registry, via the same tmp + rename
     path as every other artifact — an aborted run still leaves whole
     files. *)
  if collect then begin
    Obs.Metrics.set_collecting false;
    let sn = Obs.Metrics.snapshot () in
    Option.iter
      (fun path ->
        Safe_io.with_file path (fun oc ->
            output_string oc (Obs.Metrics.to_prometheus sn));
        Safe_io.with_file (path ^ ".json") (fun oc ->
            output_string oc (Obs.Metrics.to_json sn)))
      t.metrics;
    if t.profile then Fmt.epr "%a@." (Obs.Metrics.pp_report ?top:None) sn
  end;
  (match Limits.degraded fuel with
  | Some (kind, what) ->
    (* [what] is the full exhaustion message, engine context included. *)
    Fmt.epr
      "warning: incomplete result (%s) — printed facts are a sound \
       under-approximation@."
      what;
    code := exit_code kind
  | None -> ());
  if !code <> 0 then exit !code

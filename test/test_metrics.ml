(* Retained-metrics tests: histogram laws (exactness below 16, quantile
   monotonicity, associative/commutative merge, the 1/16 relative error
   bound against the exact nearest-rank reference), registry semantics
   (counters, gauges, span resource attribution, reset, renderings), the
   zero-interference contract — collection on ≡ off in results and fuel
   for every engine, at 1 and 4 domains — span-id tree reconstruction
   from a JSONL trace, and drift-triggered live re-planning. *)

open Recalg
module H = Obs.Histogram
module M = Obs.Metrics

let vi = Value.int

(* --- workloads (mirrors test_obs.ml, small sizes) --- *)

let compose a b =
  Algebra.Expr.(
    map
      (Algebra.Efun.Tuple_of
         [ Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 1);
           Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 2) ])
      (select
         (Algebra.Pred.Eq
            ( Algebra.Efun.Compose (Algebra.Efun.Proj 2, Algebra.Efun.Proj 1),
              Algebra.Efun.Compose (Algebra.Efun.Proj 1, Algebra.Efun.Proj 2) ))
         (product a b)))

let tc_ifp =
  Algebra.Expr.(ifp "x" (union (rel "edge") (compose (rel "edge") (rel "x"))))

let chain_db n =
  Algebra.Db.of_list
    [ ("edge", List.init n (fun i -> Value.pair (vi i) (vi (i + 1)))) ]

let win_program = fst (Datalog.Parser.parse_exn "win(X) :- move(X,Y), not win(Y).")

let tc_program =
  fst
    (Datalog.Parser.parse_exn
       "tc(X,Y) :- e(X,Y). tc(X,Z) :- e(X,Y), tc(Y,Z).")

let chain_moves n =
  let rec go i edb =
    if i >= n then edb
    else go (i + 1) (Datalog.Edb.add "move" [ vi i; vi (i + 1) ] edb)
  in
  go 0 Datalog.Edb.empty

let win_body =
  Algebra.Expr.(
    pi 1 (diff (rel "move") (product (pi 1 (rel "move")) (rel "win"))))

let no_defs = Algebra.Defs.make []

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let spent fuel_budget f =
  let fuel = Limits.of_int fuel_budget in
  let r = f ~fuel in
  (r, Limits.remaining fuel)

(* Evaluate [f] on a pool of [n] domains, restoring size 1 even on
   failure — later suites assume a quiet pool. *)
let with_domains n f =
  Pool.set_domains n;
  Fun.protect ~finally:(fun () -> Pool.set_domains 1) f

(* --- histogram laws --- *)

let test_hist_exact_below_16 () =
  let h = H.create () in
  List.iter (H.record h) [ 0; 3; 3; 7; 11; 15 ];
  Alcotest.(check int) "count" 6 (H.count h);
  Alcotest.(check int) "total" 39 (H.total h);
  Alcotest.(check int) "min" 0 (H.min_value h);
  Alcotest.(check int) "max" 15 (H.max_value h);
  (* Every value below 16 has its own bucket: quantiles are exact. *)
  Alcotest.(check int) "p0" 0 (H.quantile h 0.);
  Alcotest.(check int) "p50" 3 (H.quantile h 0.5);
  Alcotest.(check int) "p100" 15 (H.quantile h 1.);
  (* Negative recordings clamp to zero rather than crash. *)
  H.record h (-5);
  Alcotest.(check int) "clamped min" 0 (H.min_value h);
  Alcotest.(check int) "clamped total" 39 (H.total h)

let test_hist_quantile_monotone () =
  let h = H.create () in
  let seed = ref 12345 in
  for _ = 1 to 500 do
    (* Deterministic LCG: Date/Random are beside the point here. *)
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    H.record h (!seed mod 100_000)
  done;
  let qs = [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ] in
  let vals = List.map (H.quantile h) qs in
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "quantile monotone in q" true (a <= b);
      ascending rest
    | _ -> ()
  in
  ascending vals;
  List.iter
    (fun v ->
      Alcotest.(check bool) "within extrema" true
        (H.min_value h <= v && v <= H.max_value h))
    vals;
  (* The extrema themselves are exact, however wide their buckets. *)
  Alcotest.(check int) "p0 is the minimum" (H.min_value h) (H.quantile h 0.);
  Alcotest.(check int) "p100 is the maximum" (H.max_value h) (H.quantile h 1.)

let buckets h = H.fold (fun ~low ~high ~count acc -> (low, high, count) :: acc) h []

let test_hist_merge_laws () =
  let mk vs =
    let h = H.create () in
    List.iter (H.record h) vs;
    h
  in
  let a = mk [ 1; 17; 900; 900 ]
  and b = mk [ 5; 64; 100_000 ]
  and c = mk [ 0; 33_000; 7 ] in
  (* Commutative and associative, bucket for bucket. *)
  Alcotest.(check bool) "commutative" true
    (buckets (H.merge a b) = buckets (H.merge b a));
  Alcotest.(check bool) "associative" true
    (buckets (H.merge (H.merge a b) c) = buckets (H.merge a (H.merge b c)));
  let m = H.merge (H.merge a b) c in
  Alcotest.(check int) "count adds" 10 (H.count m);
  Alcotest.(check int) "total adds" (H.total a + H.total b + H.total c)
    (H.total m);
  Alcotest.(check int) "min of mins" 0 (H.min_value m);
  Alcotest.(check int) "max of maxes" 100_000 (H.max_value m);
  (* merge_into agrees with merge. *)
  let acc = H.create () in
  List.iter (fun src -> H.merge_into ~into:acc src) [ a; b; c ];
  Alcotest.(check bool) "merge_into = merge" true (buckets acc = buckets m)

let nat_list_arb =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(list_size (int_range 1 200) (int_range 0 200_000))

let prop_hist_error_bound =
  QCheck.Test.make ~count:(Tgen.qcount 100)
    ~name:"histogram quantile within 1/16 of exact nearest-rank"
    nat_list_arb (fun vs ->
      let h = H.create () in
      List.iter (H.record h) vs;
      let sample = List.map float_of_int vs in
      List.for_all
        (fun q ->
          let exact = H.exact_quantile sample q in
          let approx = float_of_int (H.quantile h q) in
          (* The histogram reports the bucket's lower bound, clamped to
             the recorded extrema: never above the exact quantile and
             at most one bucket width — 1/16 of the value — below. *)
          approx <= exact +. 1e-6
          && exact -. approx <= (exact /. 16.) +. 1e-6)
        [ 0.; 0.25; 0.5; 0.9; 0.99; 1. ])

(* --- registry semantics --- *)

let test_registry_counters_gauges () =
  M.reset ();
  Alcotest.(check bool) "off by default" false (M.collecting ());
  (* Emissions with collection off leave no trace. *)
  Obs.count "t/c" 5;
  Obs.gauge "t/g" 9.;
  let sn0 = M.snapshot () in
  Alcotest.(check int) "dropped count" 0 (M.counter_events sn0 "t/c");
  Alcotest.(check (option (float 0.))) "dropped gauge" None
    (M.gauge_last sn0 "t/g");
  M.with_collecting (fun () ->
      Alcotest.(check bool) "on inside" true (M.collecting ());
      Obs.count "t/c" 2;
      Obs.count "t/c" 3;
      Obs.gauge "t/g" 7.;
      Obs.gauge "t/g" 4.);
  Alcotest.(check bool) "restored off" false (M.collecting ());
  let sn = M.snapshot () in
  Alcotest.(check int) "counter events" 2 (M.counter_events sn "t/c");
  Alcotest.(check int) "counter total" 5 (M.counter_total sn "t/c");
  Alcotest.(check int) "increment p100" 3 (M.counter_quantile sn "t/c" 1.);
  Alcotest.(check int) "gauge samples" 2 (M.gauge_samples sn "t/g");
  Alcotest.(check (option (float 0.))) "gauge last" (Some 4.)
    (M.gauge_last sn "t/g");
  Alcotest.(check (option (float 0.))) "gauge max" (Some 7.)
    (M.gauge_max sn "t/g");
  M.reset ();
  let sn' = M.snapshot () in
  Alcotest.(check int) "reset clears counters" 0 (M.counter_total sn' "t/c");
  Alcotest.(check (option (float 0.))) "reset clears gauges" None
    (M.gauge_last sn' "t/g")

let collected_eval_snapshot () =
  M.reset ();
  (* Fuel attribution reads the ambient active budget, installed by the
     CLI driver in production — mirror it here. *)
  let fuel = Limits.of_int 100_000 in
  M.with_collecting (fun () ->
      Limits.with_active fuel (fun () ->
          ignore (Algebra.Eval.eval ~fuel no_defs (chain_db 6) tc_ifp)));
  let sn = M.snapshot () in
  M.reset ();
  sn

let test_registry_span_attribution () =
  let sn = collected_eval_snapshot () in
  let spans =
    M.fold_spans
      (fun path ~calls ~wall_ms ~fuel ~alloc_words acc ->
        (path, calls, wall_ms, fuel, alloc_words) :: acc)
      sn []
  in
  Alcotest.(check bool) "spans recorded" true (spans <> []);
  Alcotest.(check bool) "an eval span exists" true
    (List.exists (fun (p, _, _, _, _) -> contains ~sub:"eval" p) spans);
  List.iter
    (fun (p, calls, wall_ms, fuel, alloc_words) ->
      Alcotest.(check bool) (p ^ " calls > 0") true (calls > 0);
      Alcotest.(check bool) (p ^ " wall >= 0") true (wall_ms >= 0.);
      Alcotest.(check bool) (p ^ " fuel >= 0") true (fuel >= 0);
      Alcotest.(check bool) (p ^ " alloc >= 0") true (alloc_words >= 0.);
      Alcotest.(check int) (p ^ " accessor calls") calls (M.span_calls sn p);
      Alcotest.(check int) (p ^ " accessor fuel") fuel (M.span_fuel sn p);
      Alcotest.(check bool) (p ^ " quantile ordered") true
        (M.span_quantile_ms sn p 0.5 <= M.span_quantile_ms sn p 0.99))
    spans;
  (* The run had an active fuel budget: some phase must own real fuel. *)
  let total_fuel =
    List.fold_left (fun acc (_, _, _, f, _) -> acc + f) 0 spans
  in
  Alcotest.(check bool) "fuel attributed somewhere" true (total_fuel > 0);
  (* Cardinality gauges from the evaluator landed in the registry. *)
  Alcotest.(check bool) "db/card/edge gauge" true
    (M.gauge_last sn "db/card/edge" <> None)

let test_registry_renderings () =
  let sn = collected_eval_snapshot () in
  let prom = M.to_prometheus sn in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Fmt.str "prometheus has %S" sub) true
        (contains ~sub prom))
    [ "# TYPE recalg_counter_total counter";
      "# TYPE recalg_gauge gauge";
      "# TYPE recalg_span_latency_us histogram";
      "recalg_span_fuel_total{span=\"";
      "le=\"+Inf\"";
      "recalg_span_latency_us_count" ];
  let json = M.to_json sn in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Fmt.str "json has %S" sub) true
        (contains ~sub json))
    [ "\"counters\""; "\"gauges\""; "\"spans\""; "\"p50_ms\""; "\"p99_ms\"";
      "\"fuel\""; "\"alloc_words\"" ];
  let report = Fmt.str "%a" (M.pp_report ?top:None) sn in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Fmt.str "report has %S" sub) true
        (contains ~sub report))
    [ "p50"; "p99"; "fuel" ]

(* --- the zero-interference contract, per engine, at 1 and 4 domains --- *)

let transparent_at ~budget eval_pair =
  (* [eval_pair] runs the engine once plain and once collected and
     answers whether results and fuel agree. *)
  let plain, plain_fuel = spent budget (fun ~fuel -> eval_pair ~fuel) in
  M.reset ();
  let on, on_fuel =
    M.with_collecting (fun () -> spent budget (fun ~fuel -> eval_pair ~fuel))
  in
  M.reset ();
  (plain, plain_fuel, on, on_fuel)

let both_domains check = check 1 && with_domains 4 (fun () -> check 4)

let prop_metrics_transparent_eval =
  QCheck.Test.make ~count:(Tgen.qcount 30)
    ~name:"metrics-on ≡ metrics-off: Eval IFP (domains 1 and 4)"
    Tgen.graph_arb (fun edges ->
      let db =
        Algebra.Db.of_list
          [ ("edge",
             List.map
               (fun (a, b) -> Value.pair (Value.sym a) (Value.sym b))
               edges) ]
      in
      both_domains (fun _ ->
          let plain, pf, on, onf =
            transparent_at ~budget:200_000 (fun ~fuel ->
                Algebra.Eval.eval ~fuel no_defs db tc_ifp)
          in
          Value.equal plain on && pf = onf))

let prop_metrics_transparent_rec =
  QCheck.Test.make ~count:(Tgen.qcount 25)
    ~name:"metrics-on ≡ metrics-off: Rec_eval solve (domains 1 and 4)"
    Tgen.graph_arb (fun edges ->
      let db =
        Algebra.Db.of_list
          [ ("move",
             List.map
               (fun (a, b) -> Value.pair (Value.sym a) (Value.sym b))
               edges) ]
      in
      let defs = Algebra.Defs.make [ Algebra.Defs.constant "win" win_body ] in
      both_domains (fun _ ->
          let plain, pf, on, onf =
            transparent_at ~budget:400_000 (fun ~fuel ->
                let sol = Algebra.Rec_eval.solve ~fuel defs db in
                Algebra.Rec_eval.constant sol "win")
          in
          Value.equal plain.Algebra.Rec_eval.low on.Algebra.Rec_eval.low
          && Value.equal plain.Algebra.Rec_eval.high on.Algebra.Rec_eval.high
          && pf = onf))

let prop_metrics_transparent_seminaive =
  QCheck.Test.make ~count:(Tgen.qcount 25)
    ~name:"metrics-on ≡ metrics-off: datalog semi-naive (domains 1 and 4)"
    Tgen.graph_arb (fun edges ->
      let edb = Tgen.e_edb edges in
      both_domains (fun _ ->
          let plain, pf, on, onf =
            transparent_at ~budget:400_000 (fun ~fuel ->
                Datalog.Run.stratified ~fuel tc_program edb)
          in
          let same =
            match plain, on with
            | Ok a, Ok b -> Datalog.Edb.equal a b
            | Error a, Error b -> a = b
            | _ -> false
          in
          same && pf = onf))

let prop_metrics_transparent_grounder =
  QCheck.Test.make ~count:(Tgen.qcount 25)
    ~name:"metrics-on ≡ metrics-off: grounder (domains 1 and 4)"
    Tgen.graph_arb (fun edges ->
      let edb = Tgen.move_edb edges in
      both_domains (fun _ ->
          let plain, pf, on, onf =
            transparent_at ~budget:400_000 (fun ~fuel ->
                let pg = Datalog.Grounder.ground ~fuel win_program edb in
                (Datalog.Propgm.n_atoms pg, Datalog.Valid.solve pg))
          in
          fst plain = fst on
          && Datalog.Interp.equal (snd plain) (snd on)
          && pf = onf))

(* --- span ids reconstruct the trace tree --- *)

let int_field key line =
  let pat = Fmt.str "\"%s\": " key in
  let pn = String.length pat and n = String.length line in
  let rec find i =
    if i + pn > n then None
    else if String.sub line i pn = pat then Some (i + pn)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < n && (line.[!stop] = '-' || (line.[!stop] >= '0' && line.[!stop] <= '9'))
    do
      incr stop
    done;
    int_of_string_opt (String.sub line start (!stop - start))

let test_sid_parent_tree () =
  let path = Filename.temp_file "recalg_metrics" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let _ =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs.with_sink (Obs.Sink.jsonl oc) (fun () ->
            Datalog.Run.valid win_program (chain_moves 5)))
  in
  let ic = open_in path in
  let lines =
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  close_in ic;
  let begins =
    List.filter (contains ~sub:"\"ev\": \"span_begin\"") lines
  in
  Alcotest.(check bool) "spans were traced" true (List.length begins > 1);
  (* Replay the trace: sids strictly monotone in opening order, every
     begin's parent is the innermost still-open span (0 at the root),
     every end closes the innermost open span — a well-formed tree. *)
  let stack = ref [] and last_sid = ref 0 in
  List.iter
    (fun line ->
      if contains ~sub:"\"ev\": \"span_begin\"" line then begin
        let sid =
          match int_field "sid" line with
          | Some s -> s
          | None -> Alcotest.fail ("begin without sid: " ^ line)
        in
        let parent =
          match int_field "parent" line with
          | Some p -> p
          | None -> Alcotest.fail ("begin without parent: " ^ line)
        in
        Alcotest.(check bool) "sid strictly monotone" true (sid > !last_sid);
        last_sid := sid;
        let expected = match !stack with [] -> 0 | top :: _ -> top in
        Alcotest.(check int) "parent is the innermost open span" expected
          parent;
        stack := sid :: !stack
      end
      else if contains ~sub:"\"ev\": \"span_end\"" line then begin
        let sid =
          match int_field "sid" line with
          | Some s -> s
          | None -> Alcotest.fail ("end without sid: " ^ line)
        in
        match !stack with
        | top :: rest ->
          Alcotest.(check int) "end closes the innermost span" top sid;
          stack := rest
        | [] -> Alcotest.fail "span_end with no open span"
      end)
    lines;
  Alcotest.(check (list int)) "every span closed" [] !stack

(* --- drift-triggered live re-planning --- *)

(* The E16b decoy, scaled down: inside the TC fixpoint, x crosses a tiny
   relation before joining a wide low-key one. Against the default
   bound-cardinality estimate the greedy planner starts the region with
   the x*tiny cross product; once x outgrows the estimate, a re-plan
   starts with the selective tiny-lure join instead. The decoy is
   provably empty (tiny.2 and lure.1 are disjoint), so both plans agree
   and only enumeration cost moves. *)
let drift_db ln =
  Algebra.Db.of_list
    [ ("edge", List.init ln (fun i -> Value.pair (vi i) (vi (i + 1))));
      ("tiny", List.init 4 (fun i -> Value.pair (vi i) (vi (300 + i))));
      ("lure",
       List.init 768 (fun j -> Value.pair (vi (1 + (j mod 8))) (vi (1000 + j))))
    ]

let drift_body =
  let cc a b = Algebra.Efun.Compose (a, b) in
  let p i = Algebra.Efun.Proj i in
  let open Algebra.Expr in
  let x_2 = cc (p 2) (cc (p 1) (p 1)) in
  let t_2 = cc (p 2) (cc (p 2) (p 1)) in
  let b_1 = cc (p 1) (p 2) in
  let trap =
    map
      (cc (p 1) (p 1))
      (select
         (Algebra.Pred.And
            ( Algebra.Pred.And
                (Algebra.Pred.Eq (x_2, b_1), Algebra.Pred.Eq (t_2, b_1)),
              Algebra.Pred.Leq (x_2, b_1) ))
         (product (product (rel "x") (rel "tiny")) (rel "lure")))
  in
  union (union (rel "edge") (compose (rel "edge") (rel "x"))) trap

let test_refresh_drift_unit () =
  let db = drift_db 16 in
  let stats = Plan.Stats.of_db db in
  (* Planning off: the hook answers None without forcing a thunk. *)
  let off = Plan.Planner.create ~stats Plan.Planner.Off in
  let body_off = Plan.Planner.rewrite off drift_body in
  let forced = ref 0 in
  let probe () =
    incr forced;
    4096
  in
  Alcotest.(check bool) "refresh off is None" true
    (Plan.Planner.refresh off ~bound:[ ("x", probe) ] body_off = None);
  Alcotest.(check int) "refresh off forces nothing" 0 !forced;
  (* Cost, no drift: the observed cardinality matches the estimate. *)
  let cost = Plan.Planner.create ~stats Plan.Planner.Cost in
  let planned = Plan.Planner.rewrite cost drift_body in
  Alcotest.(check bool) "no drift, no re-plan" true
    (Plan.Planner.refresh cost ~bound:[ ("x", fun () -> 64) ] planned
    = None);
  (* Cost, drifted far beyond the threshold: the re-planned body must
     be structurally different (the join order flipped). *)
  (match
     Plan.Planner.refresh cost ~bound:[ ("x", fun () -> 4096) ]
       planned
   with
  | None -> Alcotest.fail "drift beyond threshold did not re-plan"
  | Some body' ->
    Alcotest.(check bool) "re-plan changed the body" false
      (Algebra.Expr.equal body' planned));
  (* The drift and re-plan were counted in the retained registry. *)
  M.reset ();
  M.with_collecting (fun () ->
      ignore
        (Plan.Planner.refresh
           (let a = Plan.Planner.create ~stats Plan.Planner.Cost in
            ignore (Plan.Planner.rewrite a drift_body);
            a)
           ~bound:[ ("x", fun () -> 4096) ]
           planned));
  let sn = M.snapshot () in
  M.reset ();
  Alcotest.(check bool) "plan/drift counted" true
    (M.counter_total sn "plan/drift" >= 1)

let test_drift_live_stale_agree () =
  let db = drift_db 16 in
  let ifp = Algebra.Expr.ifp "x" drift_body in
  let stats = Plan.Stats.of_db db in
  let eval advice =
    spent 1_000_000_000 (fun ~fuel ->
        Algebra.Eval.eval ~fuel ~advice:(Algebra.Advice.naive advice) no_defs
          db ifp)
  in
  let plain, _ = eval Algebra.Advice.none in
  (* The stale arm is a planner of its own that never re-plans. *)
  let stale =
    { (Plan.Planner.advice (Plan.Planner.create ~stats Plan.Planner.Cost)) with
      Algebra.Advice.refresh = Algebra.Advice.none.Algebra.Advice.refresh }
  in
  let stale_r, _ = eval stale in
  Alcotest.(check bool) "stale plan is exact" true (Value.equal plain stale_r);
  (* Live re-planning with collection off and on: the planner reads no
     registry, so both runs re-plan alike — same result, same fuel. *)
  let live () = Plan.Planner.create ~stats Plan.Planner.Cost in
  let off_r, off_fuel = eval (Plan.Planner.advice (live ())) in
  M.reset ();
  let on_r, on_fuel =
    M.with_collecting (fun () -> eval (Plan.Planner.advice (live ())))
  in
  let sn = M.snapshot () in
  M.reset ();
  Alcotest.(check bool) "live re-planned run is exact" true
    (Value.equal plain off_r);
  Alcotest.(check bool) "collection on = off: result" true
    (Value.equal off_r on_r);
  Alcotest.(check (option int)) "collection on = off: fuel" off_fuel on_fuel;
  Alcotest.(check bool) "cardinality drift observed" true
    (M.counter_total sn "plan/drift" >= 1);
  Alcotest.(check bool) "at least one mid-fixpoint re-plan" true
    (M.counter_total sn "plan/replan" >= 1)

let suite =
  [
    Alcotest.test_case "histogram: exact below 16" `Quick
      test_hist_exact_below_16;
    Alcotest.test_case "histogram: quantile monotonicity" `Quick
      test_hist_quantile_monotone;
    Alcotest.test_case "histogram: merge laws" `Quick test_hist_merge_laws;
    QCheck_alcotest.to_alcotest prop_hist_error_bound;
    Alcotest.test_case "registry: counters, gauges, reset" `Quick
      test_registry_counters_gauges;
    Alcotest.test_case "registry: span resource attribution" `Quick
      test_registry_span_attribution;
    Alcotest.test_case "registry: prometheus/json/report renderings" `Quick
      test_registry_renderings;
    QCheck_alcotest.to_alcotest prop_metrics_transparent_eval;
    QCheck_alcotest.to_alcotest prop_metrics_transparent_rec;
    QCheck_alcotest.to_alcotest prop_metrics_transparent_seminaive;
    QCheck_alcotest.to_alcotest prop_metrics_transparent_grounder;
    Alcotest.test_case "trace: span ids reconstruct the tree" `Quick
      test_sid_parent_tree;
    Alcotest.test_case "planner: refresh drift unit behaviour" `Quick
      test_refresh_drift_unit;
    Alcotest.test_case "planner: live re-plan ≡ stale ≡ unplanned" `Quick
      test_drift_live_stale_agree;
  ]

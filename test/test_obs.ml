(* Observability tests: the zero-cost-when-off invariant (traced and
   untraced runs are byte-identical in results and fuel), exact fixpoint
   iteration counts in the metrics registry, span paths that stay fixed
   as round counts grow, the JSONL event schema, and the span-path
   context on fuel exhaustion. *)

open Recalg

let vi = Value.int

(* --- workloads (mirrors bench/workloads.ml, small sizes) --- *)

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

let chain_moves n =
  let rec go i edb =
    if i >= n then edb
    else go (i + 1) (Datalog.Edb.add "move" [ vi i; vi (i + 1) ] edb)
  in
  go 0 Datalog.Edb.empty

let no_defs = Algebra.Defs.make []

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- the zero-cost-when-off invariant --- *)

let test_disabled_by_default () =
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  let r = Algebra.Eval.eval no_defs (chain_db 6) tc_ifp in
  Alcotest.(check int) "tc size" 21 (Value.cardinal r)

let spent fuel_budget f =
  let fuel = Limits.of_int fuel_budget in
  let r = f ~fuel in
  (r, Limits.remaining fuel)

let test_traced_untraced_identical_ifp () =
  let db = chain_db 8 in
  let plain, plain_fuel =
    spent 100_000 (fun ~fuel -> Algebra.Eval.eval ~fuel no_defs db tc_ifp)
  in
  let mem, _ = Obs.Sink.memory () in
  let traced, traced_fuel =
    Obs.with_sink mem (fun () ->
        spent 100_000 (fun ~fuel -> Algebra.Eval.eval ~fuel no_defs db tc_ifp))
  in
  Alcotest.(check bool) "same value" true (Value.equal plain traced);
  Alcotest.(check (option int)) "same fuel" plain_fuel traced_fuel

let test_traced_untraced_identical_join () =
  (* E6-style: a single fused join, traced vs untraced. *)
  let db = chain_db 12 in
  let expr = compose (Algebra.Expr.rel "edge") (Algebra.Expr.rel "edge") in
  let plain, plain_fuel =
    spent 100_000 (fun ~fuel -> Algebra.Eval.eval ~fuel no_defs db expr)
  in
  let mem, _ = Obs.Sink.memory () in
  let traced, traced_fuel =
    Obs.with_sink mem (fun () ->
        spent 100_000 (fun ~fuel -> Algebra.Eval.eval ~fuel no_defs db expr))
  in
  Alcotest.(check bool) "same value" true (Value.equal plain traced);
  Alcotest.(check (option int)) "same fuel" plain_fuel traced_fuel

let test_traced_untraced_identical_valid () =
  let edb = chain_moves 7 in
  let plain, plain_fuel =
    spent 100_000 (fun ~fuel -> Datalog.Run.valid ~fuel win_program edb)
  in
  let mem, _ = Obs.Sink.memory () in
  let traced, traced_fuel =
    Obs.with_sink mem (fun () ->
        spent 100_000 (fun ~fuel -> Datalog.Run.valid ~fuel win_program edb))
  in
  Alcotest.(check bool) "same interp" true (Datalog.Interp.equal plain traced);
  Alcotest.(check (option int)) "same fuel" plain_fuel traced_fuel

(* --- exact fixpoint iteration counts in the metrics registry --- *)

(* Run [f] with the registry collecting (from empty) and return its
   result with the snapshot. *)
let collected f =
  Obs.Metrics.reset ();
  let r = Obs.Metrics.with_collecting f in
  let sn = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  (r, sn)

let test_summary_tc_iterations () =
  (* Semi-naive IFP over chain-n: the delta shrinks by one path length
     per round — n productive iterations plus the empty-delta one. The
     registry counts the iterations; the exact per-round series comes
     from the event stream, since the registry keeps distributions. *)
  let n = 6 in
  let mem, events = Obs.Sink.memory () in
  let r, sn =
    collected (fun () ->
        Obs.with_sink mem (fun () ->
            Algebra.Eval.eval no_defs (chain_db n) tc_ifp))
  in
  Alcotest.(check int) "tc size" (n * (n + 1) / 2) (Value.cardinal r);
  Alcotest.(check int) "ifp iterations" (n + 1)
    (Obs.Metrics.counter_events sn "eval/ifp_iter");
  let deltas =
    List.filter_map
      (function
        | Obs.Event.Count { counter = "eval/ifp_delta"; n; _ } -> Some n
        | Obs.Event.Count _ | Obs.Event.Span_begin _ | Obs.Event.Span_end _
        | Obs.Event.Gauge _ ->
          None)
      (events ())
  in
  Alcotest.(check (list int)) "delta sizes" [ 6; 5; 4; 3; 2; 1; 0 ] deltas;
  Alcotest.(check int) "delta total" 21
    (Obs.Metrics.counter_total sn "eval/ifp_delta")

let test_summary_valid_rounds () =
  (* The win/move game: the registry's round count must equal the
     engine's own alternating-fixpoint iteration count, and every round
     runs under the one [round] span path. *)
  let edb = chain_moves 9 in
  let pg = Datalog.Grounder.ground win_program edb in
  let expected = Datalog.Valid.iterations pg in
  let interp, sn = collected (fun () -> Datalog.Run.valid win_program edb) in
  Alcotest.(check bool) "solved" true
    (Datalog.Interp.equal interp (Datalog.Valid.solve pg));
  Alcotest.(check int) "valid rounds" expected
    (Obs.Metrics.counter_events sn "valid/round");
  Alcotest.(check int) "one round span call per round" expected
    (Obs.Metrics.span_calls sn "run.valid > valid > round")

let test_summary_grounder_counters () =
  let edb = chain_moves 8 in
  let pg = Datalog.Grounder.ground win_program edb in
  let _, sn = collected (fun () -> Datalog.Grounder.ground win_program edb) in
  Alcotest.(check int) "atom universe" (Datalog.Propgm.n_atoms pg)
    (Obs.Metrics.counter_total sn "ground/atoms");
  Alcotest.(check bool) "rounds reported" true
    (Obs.Metrics.counter_events sn "ground/round" >= 1);
  Alcotest.(check bool) "envelope reported" true
    (Obs.Metrics.counter_total sn "ground/envelope" > 0)

let test_summary_rewrite_cache () =
  let spec = Spec.Prelude.nat_spec in
  let rec nat k = if k = 0 then Spec.Term.const "ZERO" else Spec.Term.op "SUCC" [ nat (k - 1) ] in
  let eq = Spec.Term.op "EQ" [ nat 3; nat 3 ] in
  let (), sn =
    collected (fun () ->
        let cache = Spec.Rewrite.cache () in
        ignore (Spec.Rewrite.normalize ~cache spec eq);
        ignore (Spec.Rewrite.normalize ~cache spec eq))
  in
  Alcotest.(check bool) "first normalize misses" true
    (Obs.Metrics.counter_events sn "rewrite/cache_miss" >= 1);
  Alcotest.(check bool) "second normalize hits" true
    (Obs.Metrics.counter_events sn "rewrite/cache_hit" >= 1)

(* --- span paths are bounded by the code, not by the round count --- *)

let span_paths sn =
  List.sort String.compare
    (Obs.Metrics.fold_spans
       (fun path ~calls:_ ~wall_ms:_ ~fuel:_ ~alloc_words:_ acc -> path :: acc)
       sn [])

let test_span_paths_bounded () =
  (* Datalog: WIN chains of 8 and 64 moves take 5 and 33 alternating
     rounds, yet list the same span paths. *)
  let valid_run n =
    let edb = chain_moves n in
    let rounds = Datalog.Valid.iterations (Datalog.Grounder.ground win_program edb) in
    let _, sn = collected (fun () -> Datalog.Run.valid win_program edb) in
    Alcotest.(check int)
      (Fmt.str "chain %d: round span calls = iterations" n)
      rounds
      (Obs.Metrics.span_calls sn "run.valid > valid > round");
    (rounds, span_paths sn)
  in
  let r8, paths8 = valid_run 8 and r64, paths64 = valid_run 64 in
  Alcotest.(check bool) "valid rounds grow with the chain" true (r64 > r8);
  Alcotest.(check (list string)) "valid: same span paths" paths8 paths64;
  (* algebra=: the Prop 6.1 translation of the same game, solved by
     Rec_eval — its outer round count grows with the chain too. *)
  let alg_run n =
    let tr = Translate.Datalog_to_alg.translate win_program (chain_moves n) in
    let sol, sn =
      collected (fun () ->
          Algebra.Rec_eval.solve tr.Translate.Datalog_to_alg.defs
            tr.Translate.Datalog_to_alg.db)
    in
    let rounds = Algebra.Rec_eval.rounds sol in
    Alcotest.(check int)
      (Fmt.str "chain %d: rec_eval rounds counted" n)
      rounds
      (Obs.Metrics.counter_events sn "rec_eval/round");
    (rounds, span_paths sn)
  in
  let a8, apaths8 = alg_run 8 and a16, apaths16 = alg_run 16 in
  Alcotest.(check bool) "rec_eval rounds grow with the chain" true (a16 > a8);
  Alcotest.(check (list string)) "rec_eval: same span paths" apaths8 apaths16

(* --- the fuel-exhaustion span context --- *)

let diverged_message f =
  match f () with
  | exception Limits.Diverged msg -> msg
  | _ -> Alcotest.fail "expected Diverged"

let test_fuel_context_untraced () =
  let msg =
    diverged_message (fun () ->
        Algebra.Eval.eval ~fuel:(Limits.of_int 3) no_defs (chain_db 8) tc_ifp)
  in
  Alcotest.(check bool) "no span path when untraced" false
    (contains ~sub:"(in " msg)

let test_fuel_context_traced () =
  let mem, _ = Obs.Sink.memory () in
  let msg =
    Obs.with_sink mem (fun () ->
        diverged_message (fun () ->
            Algebra.Eval.eval ~fuel:(Limits.of_int 3) no_defs (chain_db 8) tc_ifp))
  in
  Alcotest.(check bool) "span path attached" true
    (contains ~sub:"(in eval" msg)

(* --- the JSONL event schema --- *)

let test_jsonl_schema () =
  let path = Filename.temp_file "recalg_obs" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let _ =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Datalog.Run.with_obs (Obs.Sink.jsonl oc) (fun () ->
            Datalog.Run.valid win_program (chain_moves 4)))
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
  Alcotest.(check bool) "nonempty" true (List.length lines > 0);
  List.iter
    (fun line ->
      Alcotest.(check bool) "object" true
        (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}');
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Fmt.str "key %s in %s" key line)
            true
            (contains ~sub:(Fmt.str "\"%s\":" key) line))
        [ "at"; "ev"; "span"; "counter" ])
    lines;
  (* The Value.Stats fold-in from Run.with_obs is present. *)
  Alcotest.(check bool) "intern stats folded in" true
    (List.exists (fun l -> contains ~sub:"value/intern_hits" l) lines)

(* --- property: tracing never changes results or fuel --- *)

let prop_valid_trace_transparent =
  QCheck.Test.make ~count:60 ~name:"traced valid run is byte-identical"
    Tgen.graph_arb (fun edges ->
      let edb = Tgen.move_edb edges in
      let plain, plain_fuel =
        spent 200_000 (fun ~fuel -> Datalog.Run.valid ~fuel win_program edb)
      in
      let mem, _ = Obs.Sink.memory () in
      let traced, traced_fuel =
        Obs.with_sink mem (fun () ->
            spent 200_000 (fun ~fuel -> Datalog.Run.valid ~fuel win_program edb))
      in
      Datalog.Interp.equal plain traced && plain_fuel = traced_fuel)

let prop_ifp_trace_transparent =
  QCheck.Test.make ~count:60 ~name:"traced IFP eval is byte-identical"
    Tgen.graph_arb (fun edges ->
      let db =
        Algebra.Db.of_list
          [ ("edge",
             List.map (fun (a, b) -> Value.pair (Value.sym a) (Value.sym b)) edges)
          ]
      in
      let plain, plain_fuel =
        spent 200_000 (fun ~fuel ->
            Algebra.Eval.eval ~fuel no_defs db tc_ifp)
      in
      let mem, _ = Obs.Sink.memory () in
      let traced, traced_fuel =
        Obs.with_sink mem (fun () ->
            spent 200_000 (fun ~fuel ->
                Algebra.Eval.eval ~fuel no_defs db tc_ifp))
      in
      Value.equal plain traced && plain_fuel = traced_fuel)

let suite =
  [
    Alcotest.test_case "disabled by default, no events" `Quick
      test_disabled_by_default;
    Alcotest.test_case "traced = untraced: IFP eval" `Quick
      test_traced_untraced_identical_ifp;
    Alcotest.test_case "traced = untraced: fused join" `Quick
      test_traced_untraced_identical_join;
    Alcotest.test_case "traced = untraced: valid semantics" `Quick
      test_traced_untraced_identical_valid;
    Alcotest.test_case "summary: tc chain iteration count" `Quick
      test_summary_tc_iterations;
    Alcotest.test_case "summary: valid round count = iterations" `Quick
      test_summary_valid_rounds;
    Alcotest.test_case "summary: grounder counters" `Quick
      test_summary_grounder_counters;
    Alcotest.test_case "summary: rewrite cache hit/miss" `Quick
      test_summary_rewrite_cache;
    Alcotest.test_case "span paths do not grow with rounds" `Quick
      test_span_paths_bounded;
    Alcotest.test_case "fuel message clean when untraced" `Quick
      test_fuel_context_untraced;
    Alcotest.test_case "fuel message carries span path" `Quick
      test_fuel_context_traced;
    Alcotest.test_case "jsonl schema: at/ev/span/counter" `Quick
      test_jsonl_schema;
    QCheck_alcotest.to_alcotest prop_valid_trace_transparent;
    QCheck_alcotest.to_alcotest prop_ifp_trace_transparent;
  ]

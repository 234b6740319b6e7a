(* Benchmark harness: one experiment per entry in DESIGN.md's index.

   The paper (SIGMOD '93 theory) has no empirical tables or figures; each
   experiment here regenerates the constructive content of one theorem or
   proposition — both sides of the claimed equivalence are executed, the
   agreement is checked, and the costs are reported (EXPERIMENTS.md
   records the measured outcomes).

     dune exec bench/main.exe            # all experiments, default sizes
     dune exec bench/main.exe -- e3      # a single experiment
     dune exec bench/main.exe -- micro   # Bechamel micro-kernels *)

open Recalg
module W = Workloads
module U = Bench_util

let vi = Value.int

(* The reference paths the ablations time the defaults against. *)
let naive = Algebra.Advice.(naive none)
let unfused = Algebra.Advice.(unfused none)

(* One extra untimed run of [f] for the "obs" block of a bench record,
   with the metrics registry collecting and a memory sink installed.
   Counts and totals come from the registry snapshot; per-iteration
   series come from the [Count] events, because the registry keeps
   distributions, not sequences. Kept out of [U.time_ms], whose repeat
   samples would multiply every event count. *)
let obs_run f =
  let sink, events = Obs.Sink.memory () in
  Obs.Metrics.reset ();
  Obs.Metrics.with_collecting (fun () ->
      Obs.with_sink sink (fun () -> ignore (f ())));
  let sn = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  (sn, events ())

let obs_series events counter =
  U.L
    (List.filter_map
       (function
         | Obs.Event.Count { counter = c; n; _ } when String.equal c counter ->
           Some (U.I n)
         | Obs.Event.Count _ | Obs.Event.Span_begin _ | Obs.Event.Span_end _
         | Obs.Event.Gauge _ ->
           None)
       events)

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 6.2: safe deduction -> algebra= round trip.            *)

let e1 () =
  U.hr "E1 (Thm 6.2): deduction -> algebra= round trip, WIN game";
  U.row "%-22s %6s %8s %8s %12s %12s %7s@." "graph" "nodes" "certain" "undef"
    "datalog ms" "algebra ms" "agree";
  let run name edges =
    let edb = W.edb_of ~pred:"move" edges in
    let datalog_ms, interp =
      U.time_ms (fun () -> Datalog.Run.valid W.win_program edb)
    in
    let algebra_ms, (tr, sol) =
      U.time_ms (fun () ->
          let tr = Translate.Datalog_to_alg.translate W.win_program edb in
          ( tr,
            Algebra.Rec_eval.solve tr.Translate.Datalog_to_alg.defs
              tr.Translate.Datalog_to_alg.db ))
    in
    let certain, possible = Translate.Datalog_to_alg.pred_tuples sol tr "win" in
    let dl_true = Datalog.Interp.true_tuples interp "win" in
    let dl_undef = Datalog.Interp.undef_tuples interp "win" in
    let sort = List.sort compare in
    let agree =
      sort certain = sort dl_true
      && sort (List.filter (fun t -> not (List.mem t certain)) possible)
         = sort dl_undef
    in
    let nodes =
      List.length
        (List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges))
    in
    U.row "%-22s %6d %8d %8d %12.2f %12.2f %7b@." name nodes (List.length dl_true)
      (List.length dl_undef) datalog_ms algebra_ms agree
  in
  run "chain-16" (W.chain 16);
  run "chain-32" (W.chain 32);
  run "cycle-16" (W.cycle 16);
  run "half-cyclic-24" (W.half_cyclic 24);
  run "random-20/40" (W.random_graph ~nodes:20 ~edges:40 ~seed:7);
  run "random-30/60" (W.random_graph ~nodes:30 ~edges:60 ~seed:11)

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 4.3: stratified deduction = positive IFP-algebra.      *)

let e2 () =
  U.hr "E2 (Thm 4.3): stratified deduction vs positive IFP-algebra, TC";
  U.row "%-10s %8s %14s %12s %14s %9s %14s %7s@." "chain" "|tc|" "stratified ms"
    "naive ms" "seminaive ms" "speedup" "translated ms" "equal";
  let sizes = if U.is_smoke () then [ 12; 24 ] else [ 12; 24; 48 ] in
  List.iter
    (fun n ->
      let edges = W.chain n in
      let edb = W.edb_of ~pred:"e" edges in
      let strat_ms, strat =
        U.time_ms (fun () ->
            match Datalog.Run.stratified W.tc_program edb with
            | Ok db -> db
            | Error e -> failwith e)
      in
      let db = W.db_of ~rel:"edge" edges in
      let no_defs = Algebra.Defs.make [] in
      let naive_ms, naive_value =
        U.time_ms (fun () ->
            Algebra.Eval.eval ~advice:naive no_defs db W.tc_ifp)
      in
      let semi_ms, semi_value =
        U.time_ms (fun () -> Algebra.Eval.eval no_defs db W.tc_ifp)
      in
      (* The two IFP engines must produce byte-identical sets. *)
      assert (Value.equal naive_value semi_value);
      (* The mechanical Theorem 4.3 image of the datalog program
         (evaluated with the default semi-naive strategy). *)
      let tr_ms, tr_tuples =
        U.time_ms (fun () ->
            match Translate.Stratified_to_ifp.translate W.tc_program edb with
            | Ok tr -> Translate.Stratified_to_ifp.eval_pred tr "t"
            | Error e -> failwith e)
      in
      let tc_count = Datalog.Edb.cardinal strat "t" in
      let equal =
        Value.equal naive_value semi_value
        && Value.cardinal semi_value = tc_count
        && List.length tr_tuples = tc_count
      in
      let speedup = naive_ms /. semi_ms in
      let sn, events =
        obs_run (fun () -> Algebra.Eval.eval no_defs db W.tc_ifp)
      in
      U.row "%-10d %8d %14.2f %12.2f %14.2f %8.1fx %14.2f %7b@." n tc_count
        strat_ms naive_ms semi_ms speedup tr_ms equal;
      U.record
        [ ("experiment", U.S "e2");
          ("workload", U.S (Fmt.str "chain-%d" n));
          ("cardinality", U.I tc_count);
          ("naive_ms", U.F naive_ms);
          ("seminaive_ms", U.F semi_ms);
          ("speedup", U.F speedup);
          ("stratified_ms", U.F strat_ms);
          ("translated_ms", U.F tr_ms);
          ("agree", U.B equal);
          ("obs",
           U.O
             [ ("ifp_iters", U.I (Obs.Metrics.counter_events sn "eval/ifp_iter"));
               ("delta_sizes", obs_series events "eval/ifp_delta") ]) ])
    sizes

(* ------------------------------------------------------------------ *)
(* E3 — semantics cost: valid vs well-founded vs inflationary.         *)

let e3 () =
  U.hr "E3: semantics cost on the WIN game (grounding shared)";
  U.row "%-18s %8s %10s %10s %10s %10s %8s@." "graph" "atoms" "valid ms"
    "wf ms" "inf ms" "stable ms" "undef";
  let run name edges =
    let edb = W.edb_of ~pred:"move" edges in
    let pg = Datalog.Grounder.ground W.win_program edb in
    let valid_ms, interp = U.time_ms (fun () -> Datalog.Valid.solve pg) in
    let wf_ms, _ = U.time_ms (fun () -> Datalog.Wellfounded.solve pg) in
    let inf_ms, _ = U.time_ms (fun () -> Datalog.Inflationary.solve pg) in
    let stable_ms =
      try fst (U.time_ms (fun () -> Datalog.Stable.models ~max_residue:16 pg))
      with Limits.Diverged _ -> nan
    in
    U.row "%-18s %8d %10.2f %10.2f %10.2f %10.2f %8d@." name
      (Datalog.Propgm.n_atoms pg) valid_ms wf_ms inf_ms stable_ms
      (Datalog.Interp.count_undef interp)
  in
  run "chain-64" (W.chain 64);
  run "chain-128" (W.chain 128);
  run "cycle-8" (W.cycle 8);
  run "cycle-9" (W.cycle 9);
  run "half-cyclic-16" (W.half_cyclic 16);
  run "random-40/80" (W.random_graph ~nodes:40 ~edges:80 ~seed:3)

(* ------------------------------------------------------------------ *)
(* E4 — Proposition 3.4: monotone S = exp(S) coincides with IFP_exp.   *)

let e4 () =
  U.hr "E4 (Prop 3.4): recursive equation vs IFP on monotone bodies";
  U.row "%-12s %8s %12s %12s %7s %11s %9s %7s@." "graph" "|tc|" "rec-eval ms" "IFP ms"
    "rounds" "phase iter" "ifp iter" "equal";
  let run name edges =
    let db = W.db_of ~rel:"edge" edges in
    let rec_ms, sol = U.time_ms (fun () -> Algebra.Rec_eval.solve W.tc_defs db) in
    let s = Algebra.Rec_eval.constant sol "tc" in
    let ifp_ms, ifp_value =
      U.time_ms (fun () -> Algebra.Eval.eval (Algebra.Defs.make []) db W.tc_ifp)
    in
    let rec_sn, _ = obs_run (fun () -> Algebra.Rec_eval.solve W.tc_defs db) in
    let ifp_sn, _ =
      obs_run (fun () -> Algebra.Eval.eval (Algebra.Defs.make []) db W.tc_ifp)
    in
    U.row "%-12s %8d %12.2f %12.2f %7d %11d %9d %7b@." name (Value.cardinal ifp_value)
      rec_ms ifp_ms
      (Algebra.Rec_eval.rounds sol)
      (Obs.Metrics.counter_total rec_sn "rec_eval/phase_iter")
      (Obs.Metrics.counter_total ifp_sn "eval/ifp_iter")
      (Algebra.Rec_eval.is_defined s && Value.equal s.Algebra.Rec_eval.low ifp_value)
  in
  run "chain-12" (W.chain 12);
  run "chain-20" (W.chain 20);
  run "chain-96" (W.chain 96);
  run "cycle-10" (W.cycle 10);
  run "random-12/24" (W.random_graph ~nodes:12 ~edges:24 ~seed:5)

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 3.5: IFP elimination.                                  *)

let e5 () =
  U.hr "E5 (Thm 3.5): IFP-algebra query through the elimination pipeline";
  U.row "%-12s %8s %8s %6s %12s %10s %14s %9s %7s@." "graph" "direct" "stage"
    "defs" "translate ms" "naive ms" "seminaive ms" "speedup" "equal";
  let run name edges =
    let db = W.db_of ~rel:"edge" edges in
    let direct = Algebra.Eval.eval (Algebra.Defs.make []) db W.tc_ifp in
    let translate_ms, elim =
      U.time_ms ~runs:3 (fun () ->
          Translate.Ifp_elim.eliminate (Algebra.Defs.make []) db W.tc_ifp)
    in
    (* Solve the produced algebra= program with both fixpoint engines. *)
    let naive_ms, value_naive =
      U.time_ms ~runs:3 (fun () ->
          Translate.Ifp_elim.query_value ~advice:naive elim)
    in
    let semi_ms, value_semi =
      U.time_ms ~runs:3 (fun () -> Translate.Ifp_elim.query_value elim)
    in
    assert (
      Value.equal value_naive.Algebra.Rec_eval.low value_semi.Algebra.Rec_eval.low
      && Value.equal value_naive.Algebra.Rec_eval.high
           value_semi.Algebra.Rec_eval.high);
    let equal =
      Value.equal value_semi.Algebra.Rec_eval.low direct
      && Value.equal value_semi.Algebra.Rec_eval.high direct
    in
    let speedup = naive_ms /. semi_ms in
    let sn, events =
      obs_run (fun () -> Translate.Ifp_elim.query_value elim)
    in
    U.row "%-12s %8d %8d %6d %12.2f %10.2f %14.2f %8.1fx %7b@." name
      (Value.cardinal direct) elim.Translate.Ifp_elim.stage_bound
      (List.length (Algebra.Defs.defs elim.Translate.Ifp_elim.defs))
      translate_ms naive_ms semi_ms speedup equal;
    U.record
      [ ("experiment", U.S "e5");
        ("workload", U.S name);
        ("cardinality", U.I (Value.cardinal direct));
        ("naive_ms", U.F naive_ms);
        ("seminaive_ms", U.F semi_ms);
        ("speedup", U.F speedup);
        ("translate_ms", U.F translate_ms);
        ("agree", U.B equal);
        ("obs",
         U.O
           [ ("rounds", U.I (Obs.Metrics.counter_events sn "rec_eval/round"));
             ("phase_iters", U.I (Obs.Metrics.counter_total sn "rec_eval/phase_iter"));
             ("delta_sizes", obs_series events "rec_eval/delta") ]) ]
  in
  run "chain-2" (W.chain 2);
  if not (U.is_smoke ()) then begin
    run "chain-3" (W.chain 3);
    run "cycle-3" (W.cycle 3)
  end

(* ------------------------------------------------------------------ *)
(* E6 — join ablation: fused hash joins vs product-then-filter.        *)

let e6 () =
  U.hr "E6: join planning ablation, fused hash join vs select∘product";
  U.row "%-16s %8s %10s %12s %9s %7s@." "workload" "|result|" "fused ms"
    "unfused ms" "speedup" "equal";
  let no_defs = Algebra.Defs.make [] in
  let run name db expr =
    let eval ?fuel advice = Algebra.Eval.eval ?fuel ~advice no_defs db expr in
    let fused_ms, fused_v = U.time_ms (fun () -> eval Algebra.Advice.none) in
    let unfused_ms, unfused_v = U.time_ms (fun () -> eval unfused) in
    (* The planner's contract: byte-identical sets, identical fuel. *)
    assert (Value.equal fused_v unfused_v);
    let spent advice =
      let fuel = Limits.of_int 1_000_000 in
      ignore (eval ~fuel advice);
      Limits.remaining fuel
    in
    assert (spent Algebra.Advice.none = spent unfused);
    let speedup = unfused_ms /. fused_ms in
    U.row "%-16s %8d %10.2f %12.2f %8.1fx %7b@." name (Value.cardinal fused_v)
      fused_ms unfused_ms speedup true;
    U.record
      [ ("experiment", U.S "e6");
        ("workload", U.S name);
        ("cardinality", U.I (Value.cardinal fused_v));
        ("fused_ms", U.F fused_ms);
        ("unfused_ms", U.F unfused_ms);
        ("speedup", U.F speedup);
        ("agree", U.B true) ]
  in
  let compose_sizes = if U.is_smoke () then [ 60 ] else [ 60; 120; 250 ] in
  List.iter
    (fun n ->
      let db = W.db_of ~rel:"edge" (W.random_graph ~nodes:n ~edges:(2 * n) ~seed:13) in
      (* e ∘ e⁻¹: pairs of nodes sharing a successor — a single
         non-recursive join. *)
      run (Fmt.str "sib-rand-%d" n) db
        (W.compose (Algebra.Expr.rel "edge") (W.inverse (Algebra.Expr.rel "edge"))))
    compose_sizes;
  let tc_sizes = if U.is_smoke () then [ 32 ] else [ 48; 96; 192 ] in
  List.iter
    (fun n -> run (Fmt.str "tc-chain-%d" n) (W.db_of ~rel:"edge" (W.chain n)) W.tc_ifp)
    tc_sizes;
  let sg_sizes = if U.is_smoke () then [ 15 ] else [ 15; 31; 63 ] in
  List.iter
    (fun n -> run (Fmt.str "sg-tree-%d" n) (W.db_of ~rel:"edge" (W.tree n)) W.sg_ifp)
    sg_sizes

(* ------------------------------------------------------------------ *)
(* E7 — Proposition 5.2: stage indices simulate inflationary.          *)

let e7 () =
  U.hr "E7 (Prop 5.2): inflationary vs stage-indexed valid semantics";
  U.row "%-14s %8s %10s %14s %8s %7s@." "program" "inf ms" "staged ms" "stage bound"
    "facts" "equal";
  let run name program edb =
    let inf_ms, inf = U.time_ms (fun () -> Datalog.Run.inflationary program edb) in
    let staged_ms, (staged, bound) =
      U.time_ms ~runs:3 (fun () -> Translate.Inflationary_removal.eval program edb)
    in
    let idb = Datalog.Program.idb_preds program in
    let equal =
      List.for_all
        (fun pred ->
          List.sort compare (Datalog.Interp.true_tuples inf pred)
          = List.sort compare (Datalog.Interp.true_tuples staged pred))
        idb
    in
    U.row "%-14s %8.2f %10.2f %14d %8d %7b@." name inf_ms staged_ms bound
      (Datalog.Interp.count_true inf) equal
  in
  let p1, edb1 =
    Datalog.Parser.parse_exn
      "e(1,2). e(2,3). e(3,4). p(X) :- e(X,Y), not q(Y). q(X) :- e(X,Y), not p(X)."
  in
  run "nonstrat-4" p1 edb1;
  let p2, edb2 = Datalog.Parser.parse_exn "r(a). q(X) :- r(X), not q(X)." in
  run "example4" p2 edb2;
  run "win-chain-8" W.win_program (W.edb_of ~pred:"move" (W.chain 8))

(* ------------------------------------------------------------------ *)
(* E8 — engine ablation: naive vs semi-naive evaluation.               *)

let e8 () =
  U.hr "E8: naive vs semi-naive relational evaluation";
  U.row "%-14s %8s %10s %12s %9s@." "workload" "|result|" "naive ms" "seminaive ms"
    "speedup";
  let run name program edb pred =
    let rules = program.Datalog.Program.rules in
    let naive_ms, naive =
      U.time_ms ~runs:3 (fun () -> Datalog.Seminaive.naive program ~base:edb rules)
    in
    let semi_ms, semi =
      U.time_ms ~runs:3 (fun () -> Datalog.Seminaive.seminaive program ~base:edb rules)
    in
    assert (Datalog.Edb.equal naive semi);
    U.row "%-14s %8d %10.2f %12.2f %9.1fx@." name (Datalog.Edb.cardinal semi pred)
      naive_ms semi_ms (naive_ms /. semi_ms)
  in
  List.iter
    (fun n ->
      run (Fmt.str "tc-chain-%d" n) W.tc_program (W.edb_of ~pred:"e" (W.chain n)) "t")
    [ 16; 32; 64 ];
  run "sg-chain-12" W.same_generation_program (W.edb_of ~pred:"e" (W.chain 12)) "sg"

(* ------------------------------------------------------------------ *)
(* E9 — the specification layer: valid interpretation cost and MEM     *)
(* totality (Theorem 3.1's executable face).                           *)

let e9 () =
  U.hr "E9 (Thm 3.1): valid interpretation of specifications";
  U.row "%-22s %10s %8s %10s %12s@." "spec" "max_size" "terms" "solve ms"
    "fully defined";
  let run name spec max_size cap =
    let built = Spec.Deductive.build ~max_size ~cap spec in
    let terms =
      List.fold_left
        (fun acc sort -> acc + List.length (Spec.Deductive.universe built sort))
        0
        (Spec.Signature.sorts (Spec.Spec.signature spec))
    in
    let ms, solved = U.time_ms ~runs:3 (fun () -> Spec.Deductive.solve built) in
    U.row "%-22s %10d %8d %10.2f %12b@." name max_size terms ms
      (Spec.Deductive.fully_defined solved)
  in
  run "nat (EQ)" Spec.Prelude.nat_spec 5 60;
  run "nat (EQ)" Spec.Prelude.nat_spec 7 80;
  run "even+default" Spec.Prelude.even_spec 6 60;
  run "even+default" Spec.Prelude.even_spec 7 70;
  run "SET(nat)" Spec.Prelude.set_nat_spec 7 60;
  (* Example 2 is tiny but its valid interpretation is 3-valued. *)
  run "example2" Spec.Prelude.example2_spec 1 10


(* ------------------------------------------------------------------ *)
(* E10 — grounding ablation: semi-naive vs naive instantiation.        *)

let e10 () =
  U.hr "E10: grounder ablation, delta vs full re-instantiation";
  U.row "%-14s %8s %8s %12s %12s %9s@." "workload" "atoms" "rules" "seminaive ms"
    "naive ms" "slowdown";
  let run name program edb =
    let semi_ms, pg =
      U.time_ms (fun () -> Datalog.Grounder.ground ~strategy:`Seminaive program edb)
    in
    let naive_ms, pg' =
      U.time_ms (fun () -> Datalog.Grounder.ground ~strategy:`Naive program edb)
    in
    assert (Datalog.Propgm.n_atoms pg = Datalog.Propgm.n_atoms pg');
    U.row "%-14s %8d %8d %12.2f %12.2f %8.1fx@." name (Datalog.Propgm.n_atoms pg)
      (Array.length pg.Datalog.Propgm.rules) semi_ms naive_ms (naive_ms /. semi_ms)
  in
  List.iter
    (fun n -> run (Fmt.str "tc-chain-%d" n) W.tc_program (W.edb_of ~pred:"e" (W.chain n)))
    [ 16; 32; 64 ];
  run "win-cycle-32" W.win_program (W.edb_of ~pred:"move" (W.cycle 32))

(* ------------------------------------------------------------------ *)
(* Micro-kernels through Bechamel's OLS analysis.                      *)

let micro () =
  U.hr "micro-kernels (Bechamel OLS, ns/run)";
  let edges = W.chain 32 in
  let edb = W.edb_of ~pred:"move" edges in
  let pg = Datalog.Grounder.ground W.win_program edb in
  let a = Value.set (List.init 64 vi)
  and b = Value.set (List.init 64 (fun i -> vi (i + 32))) in
  (* The 10,296-pair TC of a 144-node chain, probed in turn with each of
     its pairs and that pair reversed, which is absent. *)
  let tc =
    Algebra.Eval.eval (Algebra.Defs.make [])
      (W.db_of ~rel:"edge" (W.chain 143))
      W.tc_ifp
  in
  let probes =
    Array.of_list
      (List.concat_map
         (fun p ->
           match Value.node p with
           | Value.Tuple [ x; y ] -> [ p; Value.pair y x ]
           | _ -> [])
         (Value.elements tc))
  in
  let next = ref 0 in
  let results =
    U.bechamel_ns_per_run
      [
        ("value_union_64", fun () -> ignore (Value.union a b));
        ("value_product_64", fun () -> ignore (Value.product a b));
        ("value_mem_10k", fun () ->
          let k = !next in
          next := (k + 1) mod Array.length probes;
          ignore (Value.mem probes.(k) tc));
        ("ground_win_chain32", fun () ->
          ignore (Datalog.Grounder.ground W.win_program edb));
        ("valid_win_chain32", fun () -> ignore (Datalog.Valid.solve pg));
        ("wf_win_chain32", fun () -> ignore (Datalog.Wellfounded.solve pg));
      ]
  in
  List.iter
    (fun (name, ns) -> U.row "%-34s %12.0f ns/run@." name ns)
    (List.sort compare results)

(* ------------------------------------------------------------------ *)
(* E12 — incremental view maintenance: amortized per-update cost vs    *)
(* recompute-from-scratch, across batch sizes and update mixes.        *)

let e12 () =
  U.hr "E12: incremental maintenance, amortized per-update vs recompute";
  U.row "%-8s %-14s %-7s %6s %4s %12s %14s %12s %9s %6s@." "engine" "workload"
    "kind" "batch" "k" "ms/update" "ms/batch" "scratch ms" "speedup" "agree";
  let no_defs = Algebra.Defs.make [] in
  let sizes = if U.is_smoke () then [ 48 ] else [ 96; 192 ] in
  let batch_sizes = if U.is_smoke () then [ 1; 16 ] else [ 1; 16; 256 ] in
  let max_calls = if U.is_smoke () then 8 else 64 in
  let kinds = [ ("insert", `Insert); ("delete", `Delete); ("mixed", `Mixed) ] in
  let clamp lo hi v = max lo (min hi v) in
  let config n kind b =
    (* Delete-heavy streams carry their stock in the base chain, whose
       closure is quadratic in its length — keep their totals half the
       insert ones so the materialization stays tractable. *)
    let k =
      match kind with
      | `Insert -> clamp 1 max_calls (256 / b)
      | `Delete | `Mixed -> clamp 1 (max 1 (max_calls / 2)) (128 / b)
    in
    let total = k * b in
    (* Inserts prepend fresh edges before node 0; deletes consume the
       chain head-first, against extra stock appended to the base so a
       delete never misses. The final database always holds [n]-ish
       edges, so the recompute baseline matches the maintained state. *)
    let deletes =
      match kind with `Insert -> 0 | `Delete -> total | `Mixed -> total / 2
    in
    let base_edges = W.chain (n + deletes) in
    let op j =
      match kind with
      | `Insert -> (true, (-(j + 1), -j))
      | `Delete -> (false, (j, j + 1))
      | `Mixed ->
        if j mod 2 = 0 then (true, (-((j / 2) + 1), -(j / 2)))
        else (false, (j / 2, (j / 2) + 1))
    in
    let batches = List.init k (fun i -> List.init b (fun jj -> op ((i * b) + jj))) in
    (k, total, base_edges, batches)
  in
  let run_algebra base_edges batches =
    let upd ops =
      List.fold_left
        (fun u (ins, (a, b)) ->
          let v = Value.pair (vi a) (vi b) in
          if ins then Algebra.Incremental.Update.insert "edge" v u
          else Algebra.Incremental.Update.delete "edge" v u)
        Algebra.Incremental.Update.empty ops
    in
    let mk () =
      Algebra.Incremental.init no_defs (W.db_of ~rel:"edge" base_edges) W.tc_ifp
    in
    let replay eng = List.iter (fun ops -> ignore (Algebra.Incremental.update eng (upd ops))) batches in
    let sn, _ = obs_run (fun () -> replay (mk ())) in
    let eng = mk () in
    let t_incr, () = U.time_ms ~runs:1 (fun () -> replay eng) in
    let scratch_ms, scratch_v =
      U.time_ms (fun () -> Algebra.Eval.eval no_defs (Algebra.Incremental.db eng) W.tc_ifp)
    in
    let agree = Value.equal (Algebra.Incremental.value eng) scratch_v in
    (t_incr, scratch_ms, agree, sn)
  in
  let run_datalog base_edges batches =
    let upd ops =
      List.fold_left
        (fun u (ins, (a, b)) ->
          let tup = [ vi a; vi b ] in
          if ins then Datalog.Edb.Update.insert "e" tup u
          else Datalog.Edb.Update.delete "e" tup u)
        Datalog.Edb.Update.empty ops
    in
    let mk () =
      match Datalog.Incremental.init W.tc_program (W.edb_of ~pred:"e" base_edges) with
      | Ok t -> t
      | Error m -> failwith m
    in
    let replay t = List.iter (fun ops -> ignore (Datalog.Incremental.update t (upd ops))) batches in
    let sn, _ = obs_run (fun () -> replay (mk ())) in
    let t = mk () in
    let t_incr, () = U.time_ms ~runs:1 (fun () -> replay t) in
    let scratch_ms, scratch_r =
      U.time_ms (fun () ->
          Datalog.Seminaive.stratified W.tc_program (Datalog.Incremental.edb t))
    in
    let agree =
      match scratch_r with
      | Ok r -> Datalog.Edb.equal (Datalog.Incremental.result t) r
      | Error _ -> false
    in
    (t_incr, scratch_ms, agree, sn)
  in
  List.iter
    (fun n ->
      List.iter
        (fun (kind_name, kind) ->
          List.iter
            (fun b ->
              let k, total, base_edges, batches = config n kind b in
              List.iter
                (fun (engine, run) ->
                  let t_incr, scratch_ms, agree, sn = run base_edges batches in
                  let per_batch = t_incr /. float_of_int k in
                  let per_update = t_incr /. float_of_int total in
                  let speedup = scratch_ms /. per_batch in
                  assert agree;
                  let c name = Obs.Metrics.counter_total sn ("incr/" ^ name) in
                  U.row "%-8s %-14s %-7s %6d %4d %12.3f %14.2f %12.2f %8.1fx %6b@."
                    engine (Fmt.str "tc-chain-%d" n) kind_name b k per_update
                    per_batch scratch_ms speedup agree;
                  U.record
                    [ ("experiment", U.S "e12");
                      ("engine", U.S engine);
                      ("workload", U.S (Fmt.str "tc-chain-%d" n));
                      ("kind", U.S kind_name);
                      ("n", U.I n);
                      ("batch", U.I b);
                      ("batches", U.I k);
                      ("updates", U.I total);
                      ("incr_ms_per_update", U.F per_update);
                      ("incr_ms_per_batch", U.F per_batch);
                      ("scratch_ms", U.F scratch_ms);
                      ("speedup", U.F speedup);
                      ("agree", U.B agree);
                      ("obs",
                       U.O
                         [ ("insertions", U.I (c "insertions"));
                           ("retractions", U.I (c "retractions"));
                           ("repaired", U.I (c "repaired"));
                           ("recompute", U.I (c "recompute"));
                           ("extend", U.I (c "extend" + c "ifp_extend"));
                           ("dred", U.I (c "dred" + c "ifp_dred"));
                           ("rounds", U.I (c "ifp_round" + c "dred_round")) ]) ])
                [ ("algebra", run_algebra); ("datalog", run_datalog) ])
            batch_sizes)
        kinds)
    sizes

(* ------------------------------------------------------------------ *)
(* E13 — multicore scaling: the same engines at 1 and at N worker
   domains, as medians of interleaved (1, N) pairs. *)

let e13 () =
  U.hr "E13: multicore scaling, domains 1 against 2/4/8 (byte-identical results)";
  let cores = Domain.recommended_domain_count () in
  let pairs = 5 in
  U.row "(machine reports %d recommended domain(s); speedups above that \
         count measure oversubscription)@." cores;
  U.row "(each row: the median of %d interleaved (1, N)-domain pairs; \
         speedup is the median of the per-pair ratios)@." pairs;
  U.row "%-24s %8s %12s %9s %11s %6s@." "workload" "domains" "ms" "speedup"
    "pool tasks" "agree";
  let domain_counts = if U.is_smoke () then [ 2 ] else [ 2; 4; 8 ] in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  (* One workload, one scaling curve. A sample is [U.time_ms] (the median
     of three evaluations) at one pool size, and a pair times domains:1
     and then domains:N, so load drift hits both sides alike. Every
     result is compared against the first domains:1 result (the engines
     promise byte identity — [assert]ed, not just reported), and the
     structural fingerprint is recorded so a later run at another domain
     count can be checked against this one from the JSON alone.
     [pool_tasks] counts the tasks one sample spawned. *)
  let curve name eval ~equal ~fingerprint =
    let reference = ref None in
    let sample d =
      Pool.set_domains d;
      Pool.Stats.reset ();
      let ms, result = U.time_ms eval in
      (match !reference with
      | None -> reference := Some result
      | Some r -> assert (equal r result));
      (ms, (Pool.Stats.snapshot ()).Pool.Stats.tasks)
    in
    let curves =
      List.map
        (fun d ->
          ( d,
            List.init pairs (fun _ ->
                let ms1, _ = sample 1 in
                let ms, tasks = sample d in
                (ms1, ms, tasks)) ))
        domain_counts
    in
    Pool.set_domains 1;
    let fingerprint = fingerprint (Option.get !reference) in
    let emit d ms speedup tasks =
      U.row "%-24s %8d %12.2f %8.2fx %11d %6b@." name d ms speedup tasks true;
      U.record
        [ ("experiment", U.S "e13");
          ("workload", U.S name);
          ("domains", U.I d);
          ("cores", U.I cores);
          ("pairs", U.I pairs);
          ("ms", U.F ms);
          ("speedup_vs_1", U.F speedup);
          ("pool_tasks", U.I tasks);
          ("fingerprint", U.I fingerprint);
          ("agree", U.B true) ]
    in
    let ones =
      List.concat_map (fun (_, runs) -> List.map (fun (ms1, _, _) -> ms1) runs) curves
    in
    emit 1 (median ones) 1.0 0;
    List.iter
      (fun (d, runs) ->
        let _, _, tasks = List.hd runs in
        emit d
          (median (List.map (fun (_, ms, _) -> ms) runs))
          (median (List.map (fun (ms1, ms, _) -> ms1 /. ms) runs))
          tasks)
      curves
  in
  (* Per-fact structural hashes, xor-combined: order-independent and
     stable across processes (Value.hash is the memoized FNV mix). *)
  let edb_fingerprint edb =
    Datalog.Edb.fold
      (fun pred args acc ->
        acc lxor Value.hash (Value.tuple (Value.sym pred :: args)))
      edb 0
  in
  (* 1. Wide strata through [Run.stratified]: 8 independent TCs in one
     stratum; the component split gives the pool 8 coarse tasks per
     stratum. *)
  let k = 8 in
  let wn = if U.is_smoke () then 16 else 32 in
  let wide_program = W.wide_strata_program k in
  let wide_edb = W.wide_strata_edb k wn in
  curve
    (Printf.sprintf "wide_strata_%dx%d" k wn)
    (fun () ->
      match Datalog.Run.stratified wide_program wide_edb with
      | Ok db -> db
      | Error e -> failwith e)
    ~equal:Datalog.Edb.equal ~fingerprint:edb_fingerprint;
  (* 2. The same wide workload through the Theorem 4.3 translation:
     each component becomes its own IFP constant, evaluated as a pool
     task by [eval_all]. *)
  curve
    (Printf.sprintf "wide_eval_all_%dx%d" k wn)
    (fun () ->
      match Translate.Stratified_to_ifp.translate wide_program wide_edb with
      | Ok tr -> Translate.Stratified_to_ifp.eval_all tr
      | Error e -> failwith e)
    ~equal:(fun a b ->
      List.equal
        (fun (p1, v1) (p2, v2) -> String.equal p1 p2 && Value.equal v1 v2)
        a b)
    ~fingerprint:(fun rows ->
      List.fold_left
        (fun acc (p, v) -> acc lxor Value.hash (Value.pair (Value.sym p) v))
        0 rows);
  (* 3. One stratum, one component of seven rules: the pool gets one
     task, and the semi-naive rounds run on one domain. *)
  let one_edb = W.one_component_edb ~nodes:80 ~edges:80 in
  curve "one_component_6_rules"
    (fun () ->
      match Datalog.Run.stratified W.one_component_program one_edb with
      | Ok db -> db
      | Error e -> failwith e)
    ~equal:Datalog.Edb.equal ~fingerprint:edb_fingerprint

(* ------------------------------------------------------------------ *)
(* E14 — cost-based planning on adversarial join orders: workloads
   written in the order a naive translation would produce, where the
   syntactic plan (or a greedy left-deep one) materialises large
   intermediates the planner avoids. Both modes must return the same
   set ([assert]ed); only time and peak intermediate may differ. *)

let e14 () =
  U.hr "E14: cost-based planner vs unplanned (byte-identical results)";
  U.row "%-18s %-7s %12s %9s %14s %6s@." "workload" "plan" "ms" "speedup"
    "peak intermed" "agree";
  let no_defs = Algebra.Defs.make [] in
  let cc a b = Algebra.Efun.Compose (a, b) in
  let p i = Algebra.Efun.Proj i in
  let eq a b = Algebra.Pred.Eq (a, b) in
  (* Evaluate [expr] over [db] under each plan mode; the [Off] run is the
     baseline every later row's result is compared (and speedup
     normalised) against. The planner rewrite rides in via [~advice], as
     the CLI does it. *)
  let contest name db expr =
    let base = ref None in
    List.iter
      (fun mode ->
        let planner = Plan.Planner.create ~stats:(Plan.Stats.of_db db) mode in
        let advice = Plan.Planner.advice planner in
        let eval () = Algebra.Eval.eval ~advice no_defs db expr in
        let ms, result = U.time_ms eval in
        let sn, _ = obs_run eval in
        let peak =
          max
            (Obs.Metrics.counter_quantile sn "join/out" 1.0)
            (Obs.Metrics.counter_quantile sn "eval/product_out" 1.0)
        in
        let agree, speedup =
          match !base with
          | None ->
            base := Some (result, ms);
            (true, 1.0)
          | Some (r0, ms0) -> (Value.equal r0 result, ms0 /. ms)
        in
        assert agree;
        if Sys.getenv_opt "E14_DEBUG" <> None then
          Fmt.epr "--- %s %s ---@.%a@." name
            (Plan.Planner.mode_to_string mode)
            (Obs.Metrics.pp_report ?top:None) sn;
        let report =
          match Plan.Planner.reports planner with r :: _ -> Some r | [] -> None
        in
        let mode_s = Plan.Planner.mode_to_string mode in
        U.row "%-18s %-7s %12.2f %8.2fx %14d %6b@." name mode_s ms speedup
          peak agree;
        let plan_block =
          match report with
          | None ->
            U.O
              [ ("planned", U.B false); ("reordered", U.B false);
                ("semijoins", U.I 0); ("pushdowns", U.I 0);
                ("est_cost_original", U.F 0.); ("est_cost_chosen", U.F 0.);
                ("est_out", U.F 0.); ("chosen", U.S "") ]
          | Some r ->
            U.O
              [ ("planned", U.B true);
                ("reordered", U.B r.Plan.Planner.reordered);
                ("semijoins", U.I r.Plan.Planner.semijoins);
                ("pushdowns", U.I r.Plan.Planner.pushdowns);
                ("est_cost_original", U.F r.Plan.Planner.est_cost_original);
                ("est_cost_chosen", U.F r.Plan.Planner.est_cost_chosen);
                ("est_out", U.F r.Plan.Planner.est_out);
                ("chosen", U.S r.Plan.Planner.chosen) ]
        in
        U.record
          [ ("experiment", U.S "e14");
            ("workload", U.S name);
            ("mode", U.S mode_s);
            ("ms", U.F ms);
            ("speedup_vs_off", U.F speedup);
            ("peak_intermediate", U.I peak);
            ("fingerprint", U.I (Value.hash result));
            ("agree", U.B agree);
            ("plan", plan_block) ])
      [ Plan.Planner.Off; Plan.Planner.Cost ]
  in
  let pairs f n = List.init n (fun i -> f i) in
  (* 1. Star trap: two large relations and a tiny centre, written with
     the large pair innermost — the syntactic plan materialises
     |h1|*|h2| before the centre's conjuncts can cut anything. Both
     planning modes join each large relation to the centre instead. *)
  let nh = if U.is_smoke () then 48 else 300 in
  let star_db =
    Algebra.Db.of_list
      [ ("h1", pairs (fun i -> Value.pair (vi i) (vi (i mod 4))) nh);
        ("h2", pairs (fun i -> Value.pair (vi i) (vi (i mod 4))) nh);
        ("t", pairs (fun j -> Value.pair (vi j) (vi j)) 4) ]
  in
  let star_expr =
    let open Algebra.Expr in
    select
      (Algebra.Pred.And
         ( (* h1.2 = t.1 *)
           eq (cc (p 2) (cc (p 1) (p 1))) (cc (p 1) (p 2)),
           (* h2.2 = t.2 *)
           eq (cc (p 2) (cc (p 2) (p 1))) (cc (p 2) (p 2)) ))
      (product (product (rel "h1") (rel "h2")) (rel "t"))
  in
  contest (Printf.sprintf "star_trap_%d" nh) star_db star_expr;
  (* 2. Chain trap: a six-relation chain whose middle edge has only two
     distinct key values, projected onto its first relation. Written
     (and greedily planned) left-deep, the evaluation crosses that edge
     early and drags an n*n/2 intermediate through every remaining
     join; the DP search goes bushy, joining the two selective halves
     first and paying the big join exactly once — and the enclosing
     projection means no reshape is owed for the reordering. *)
  let n = if U.is_smoke () then 32 else 240 in
  let ident i = Value.pair (vi i) (vi i) in
  let chain_db =
    Algebra.Db.of_list
      [ ("ca", pairs ident n); ("cb", pairs ident n);
        ("cc_", pairs (fun i -> Value.pair (vi i) (vi (i mod 2))) n);
        ("cd", pairs (fun j -> Value.pair (vi (j mod 2)) (vi j)) n);
        ("ce", pairs ident n); ("cf", pairs ident n) ]
  in
  let chain_expr =
    let open Algebra.Expr in
    (* prev.2 = next.1 at every level, selections already distributed
       pairwise (the shape a careful hand translation produces). *)
    match List.map rel [ "ca"; "cb"; "cc_"; "cd"; "ce"; "cf" ] with
    | r1 :: r2 :: rest ->
      let first =
        select (eq (cc (p 2) (p 1)) (cc (p 1) (p 2))) (product r1 r2)
      in
      let joined =
        List.fold_left
          (fun acc r ->
            select
              (eq (cc (p 2) (cc (p 2) (p 1))) (cc (p 1) (p 2)))
              (product acc r))
          first rest
      in
      map (cc (p 1) (cc (p 1) (cc (p 1) (cc (p 1) (p 1))))) joined
    | _ -> assert false
  in
  contest (Printf.sprintf "chain_trap_%d" n) chain_db chain_expr;
  (* 3. Greedy trap: the globally smallest first pair is a cross product
     of the two tiny dimension tables — greedy commits to it and then
     drags every large-relation row times one whole dimension through
     the rest of the plan. The DP search starts from the selective join
     between the two large relations instead. *)
  let nd, ng = if U.is_smoke () then (8, 800) else (16, 8000) in
  let trap_db =
    Algebra.Db.of_list
      [ ("tx", pairs ident nd); ("ty", pairs ident nd);
        ("tg", pairs (fun i -> Value.pair (vi i) (vi (i mod nd))) ng);
        ("th", pairs (fun i -> Value.pair (vi i) (vi (i mod nd))) ng) ]
  in
  let trap_expr =
    let open Algebra.Expr in
    select
      (Algebra.Pred.And
         ( (* tg.1 = th.1 *)
           eq (cc (p 1) (cc (p 2) (p 1))) (cc (p 1) (p 2)),
           (* th.2 = ty.1 *)
           eq (cc (p 2) (p 2)) (cc (p 1) (cc (p 2) (cc (p 1) (p 1)))) ))
      (product
         (select
            ((* tg.2 = tx.1 *)
             eq (cc (p 2) (p 2)) (cc (p 1) (cc (p 1) (p 1))))
            (product (product (rel "tx") (rel "ty")) (rel "tg")))
         (rel "th"))
  in
  contest (Printf.sprintf "greedy_trap_%d" ng) trap_db trap_expr;
  (* 3. Semijoin: a projection keeps only the small relation, the big
     one contributes nothing but its eight distinct join keys. The
     planner reduces it to those keys before joining; unplanned, the
     full hash join materialises every matching pair first. *)
  let na, nb = if U.is_smoke () then (20, 480) else (100, 8000) in
  let semi_db =
    Algebra.Db.of_list
      [ ("sa", pairs (fun i -> Value.pair (vi i) (vi (i mod 8))) na);
        ("sb", pairs (fun j -> Value.pair (vi (j mod 8)) (vi j)) nb) ]
  in
  let semi_expr =
    let open Algebra.Expr in
    map (p 1)
      (select
         ((* sa.2 = sb.1 *)
          eq (cc (p 2) (p 1)) (cc (p 1) (p 2)))
         (product (rel "sa") (rel "sb")))
  in
  contest (Printf.sprintf "semijoin_%dx%d" na nb) semi_db semi_expr

(* ------------------------------------------------------------------ *)
(* E15 — resource-governance overhead: governed vs plain budgets.      *)

(* The governance contract (DESIGN.md #11): arming deadline + memory
   ceilings that never trip must cost under 3% against the plain fuel
   path on spend-heavy workloads, and must not change a single result
   or fuel count. [check_records.py e15] re-checks the committed
   record against the strict threshold. *)
let e15 () =
  U.hr "E15: resource-governance overhead, governed vs plain fuel";
  U.row "%-16s %10s %12s %10s %7s %6s@." "workload" "plain ms" "governed ms"
    "overhead" "agree" "fuel=";
  let fuel_units = 1_000_000_000 in
  let plain () = Limits.of_int fuel_units in
  (* Every ceiling armed, none remotely reachable: what is measured is
     the pure cost of the checks on the fuel hot path and at the round
     boundaries. *)
  let governed () =
    Limits.governed ~fuel:fuel_units ~timeout_ms:3_600_000
      ~memory_limit_mb:1_048_576 ()
  in
  let runs = if U.is_smoke () then 3 else 11 in
  let run name (eval : Limits.fuel -> int) =
    (* Warm both paths once (interner, minor heap) before timing. *)
    ignore (eval (plain ()));
    ignore (eval (governed ()));
    let plain_ms, governed_ms, overhead, plain_fp, governed_fp =
      U.time_pair_ms ~runs
        (fun () -> eval (plain ()))
        (fun () -> eval (governed ()))
    in
    let spent mk =
      let fuel = mk () in
      ignore (eval fuel);
      Limits.remaining fuel
    in
    let agree = plain_fp = governed_fp in
    let fuel_identical = spent plain = spent governed in
    assert agree;
    assert fuel_identical;
    U.row "%-16s %10.2f %12.2f %9.3fx %7b %6b@." name plain_ms governed_ms
      overhead agree fuel_identical;
    U.record
      [ ("experiment", U.S "e15");
        ("workload", U.S name);
        ("plain_ms", U.F plain_ms);
        ("governed_ms", U.F governed_ms);
        ("overhead_ratio", U.F overhead);
        ("agree", U.B agree);
        ("fuel_identical", U.B fuel_identical) ]
  in
  let wn = if U.is_smoke () then 60 else 150 in
  let win_edb = W.edb_of ~pred:"move" (W.random_graph ~nodes:wn ~edges:(2 * wn) ~seed:7) in
  run (Fmt.str "valid-win-%d" wn) (fun fuel ->
      let interp = Datalog.Run.valid ~fuel W.win_program win_edb in
      List.length (Datalog.Interp.true_tuples interp "win"));
  let no_defs = Algebra.Defs.make [] in
  let cn = if U.is_smoke () then 64 else 256 in
  let tc_db = W.db_of ~rel:"edge" (W.chain cn) in
  run (Fmt.str "tc-chain-%d" cn) (fun fuel ->
      Value.hash (Algebra.Eval.eval ~fuel no_defs tc_db W.tc_ifp));
  let sn = if U.is_smoke () then 15 else 63 in
  let sg_db = W.db_of ~rel:"edge" (W.tree sn) in
  run (Fmt.str "sg-tree-%d" sn) (fun fuel ->
      Value.hash (Algebra.Eval.eval ~fuel no_defs sg_db W.sg_ifp))

(* ------------------------------------------------------------------ *)
(* E16 — retained metrics: collection overhead and live re-planning.   *)

(* Two halves of the metrics contract (DESIGN.md #12). (a) The registry
   observes without steering: collection on must cost under 3% against
   collection off on the E15 workloads, with byte-identical results and
   fuel. (b) The registry's feedback loop pays for itself: on a
   fixpoint whose bound relation outgrows the planner's default
   estimate, mid-fixpoint re-planning from observed cardinalities beats
   the stale plan. [check_records.py e16] re-checks the committed
   record against both thresholds. *)
let e16 () =
  U.hr "E16: retained-metrics overhead (off vs on) and live re-planning";
  U.row "%-16s %10s %12s %10s %7s %6s@." "workload" "off ms" "on ms" "overhead"
    "agree" "fuel=";
  let fuel_units = 1_000_000_000 in
  let fresh () = Limits.of_int fuel_units in
  let runs = if U.is_smoke () then 3 else 11 in
  Obs.Metrics.set_collecting false;
  Obs.Metrics.reset ();
  let overhead_run name (eval : Limits.fuel -> int) =
    (* Warm both paths once (interner, minor heap, shard tables). *)
    ignore (eval (fresh ()));
    Obs.Metrics.with_collecting (fun () -> ignore (eval (fresh ())));
    let off_ms, on_ms, overhead, off_fp, on_fp =
      U.time_pair_ms ~runs
        (fun () -> eval (fresh ()))
        (fun () -> Obs.Metrics.with_collecting (fun () -> eval (fresh ())))
    in
    let spent collect =
      let fuel = fresh () in
      if collect then Obs.Metrics.with_collecting (fun () -> ignore (eval fuel))
      else ignore (eval fuel);
      Limits.remaining fuel
    in
    let agree = off_fp = on_fp in
    let fuel_identical = spent false = spent true in
    assert agree;
    assert fuel_identical;
    (* The record's metrics block: one fresh collected run, top three
       phases by attributed wall time. The active budget is installed
       (as the CLI driver does) so per-phase fuel attribution is real. *)
    Obs.Metrics.reset ();
    Obs.Metrics.with_collecting (fun () ->
        let fuel = fresh () in
        Limits.with_active fuel (fun () -> ignore (eval fuel)));
    let sn = Obs.Metrics.snapshot () in
    let top_spans =
      Obs.Metrics.fold_spans
        (fun path ~calls ~wall_ms ~fuel ~alloc_words acc ->
          (path, calls, wall_ms, fuel, alloc_words) :: acc)
        sn []
      |> List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> Float.compare b a)
      |> List.filteri (fun i _ -> i < 3)
    in
    let metrics_block =
      U.O
        (List.map
           (fun (path, calls, wall_ms, fuel, alloc_w) ->
             ( path,
               U.O
                 [ ("calls", U.I calls);
                   ("wall_ms", U.F wall_ms);
                   ("fuel", U.I fuel);
                   ("alloc_words", U.F alloc_w);
                   ("p50_ms", U.F (Obs.Metrics.span_quantile_ms sn path 0.5));
                   ("p99_ms", U.F (Obs.Metrics.span_quantile_ms sn path 0.99))
                 ] ))
           top_spans)
    in
    Obs.Metrics.reset ();
    U.row "%-16s %10.2f %12.2f %9.3fx %7b %6b@." name off_ms on_ms overhead
      agree fuel_identical;
    U.record
      [ ("experiment", U.S "e16");
        ("workload", U.S name);
        ("off_ms", U.F off_ms);
        ("on_ms", U.F on_ms);
        ("overhead_ratio", U.F overhead);
        ("agree", U.B agree);
        ("fuel_identical", U.B fuel_identical);
        ("metrics", metrics_block) ]
  in
  (* No smoke shrink for the win graph: below ~1ms the per-span cost of
     collection is measurable against near-zero work and the overhead
     ratio stops meaning anything. The full size is already trivial. *)
  let wn = 150 in
  let win_edb =
    W.edb_of ~pred:"move" (W.random_graph ~nodes:wn ~edges:(2 * wn) ~seed:7)
  in
  overhead_run (Fmt.str "valid-win-%d" wn) (fun fuel ->
      let interp = Datalog.Run.valid ~fuel W.win_program win_edb in
      List.length (Datalog.Interp.true_tuples interp "win"));
  let no_defs = Algebra.Defs.make [] in
  let cn = if U.is_smoke () then 64 else 256 in
  let tc_db = W.db_of ~rel:"edge" (W.chain cn) in
  overhead_run (Fmt.str "tc-chain-%d" cn) (fun fuel ->
      Value.hash (Algebra.Eval.eval ~fuel no_defs tc_db W.tc_ifp));
  (* Larger than E15's trees at both tiers: sub-5ms sizes sit at the
     noise floor of a per-mille overhead measurement. *)
  let sn = if U.is_smoke () then 63 else 127 in
  let sg_db = W.db_of ~rel:"edge" (W.tree sn) in
  overhead_run (Fmt.str "sg-tree-%d" sn) (fun fuel ->
      Value.hash (Algebra.Eval.eval ~fuel no_defs sg_db W.sg_ifp));
  (* (b) Drifting cardinality. TC over a chain, with a decoy region
     riding in the fixpoint body: x joins a tiny relation [t] (no equi
     edge — a cross product, but small while x is believed small) and a
     wide low-key relation [b]. Against the default bound-card estimate
     the cost planner starts the region with the x*t cross product;
     once x outgrows the estimate, the refreshed plan starts with the
     selective t-b join instead. Both plans return the same (empty)
     decoy contribution — only the per-round enumeration cost moves. *)
  U.hr "E16b: live re-planning vs stale plan on drifting cardinality";
  U.row "%-16s %10s %10s %9s %6s %6s %7s@." "workload" "stale ms" "live ms"
    "speedup" "drift" "replan" "agree";
  let ln = if U.is_smoke () then 32 else 64 in
  let cc a b = Algebra.Efun.Compose (a, b) in
  let p i = Algebra.Efun.Proj i in
  let pairs f n = List.init n (fun i -> f i) in
  let drift_db =
    Algebra.Db.of_list
      [ ("edge", pairs (fun i -> Value.pair (vi i) (vi (i + 1))) ln);
        (* t.2 in 300..307: disjoint from every b.1, so the decoy is
           provably empty at runtime — but the planner only sees
           distinct counts. *)
        ("tiny", pairs (fun i -> Value.pair (vi i) (vi (300 + i))) 8);
        (* b.1 in 1..8 with 96 duplicates each: est(t join b) = 768 and
           est(x join b) = 768 stay above the 512 the x*t cross is
           estimated at while x is believed to hold 64 tuples — and the
           8-row cross makes the stale plan enumerate 8|x| tuples per
           round once x outgrows that estimate. *)
        ("lure", pairs (fun j -> Value.pair (vi (1 + (j mod 8))) (vi (1000 + j))) 768)
      ]
  in
  let trap =
    let open Algebra.Expr in
    (* leaves of ((x , tiny) , lure); paths from the region root *)
    let x_2 = cc (p 2) (cc (p 1) (p 1)) in
    let t_2 = cc (p 2) (cc (p 2) (p 1)) in
    let b_1 = cc (p 1) (p 2) in
    map
      (cc (p 1) (p 1)) (* keep the x pair: the decoy adds nothing new *)
      (select
         (Algebra.Pred.And
            ( Algebra.Pred.And
                (Algebra.Pred.Eq (x_2, b_1), Algebra.Pred.Eq (t_2, b_1)),
              (* implied by x.2 = b.1, so semantically free — but as a
                 non-equi conjunct spanning the region it keeps the
                 semijoin reducer from collapsing [lure]'s duplicates,
                 which would hide the drift signal. *)
              Algebra.Pred.Leq (x_2, b_1) ))
         (product (product (rel "x") (rel "tiny")) (rel "lure")))
  in
  let drift_ifp =
    Algebra.Expr.ifp "x" (Algebra.Expr.union (W.tc_body (Algebra.Expr.rel "x")) trap)
  in
  let stats = Plan.Stats.of_db drift_db in
  (* Each arm has a planner of its own: a planner keeps the
     cardinalities it observed, so a shared one would hand the stale arm
     the live arm's re-plans. The stale arm never re-plans. *)
  let live = Plan.Planner.advice (Plan.Planner.create ~stats Plan.Planner.Cost) in
  let stale =
    { (Plan.Planner.advice (Plan.Planner.create ~stats Plan.Planner.Cost)) with
      Algebra.Advice.refresh = Algebra.Advice.none.Algebra.Advice.refresh }
  in
  (* Naive strategy: every round re-joins the whole accumulated x, so
     the plan built for |x| = 64 keeps paying the cross product as x
     grows into the thousands — the drift live re-planning corrects. *)
  let eval advice () =
    Value.hash
      (Algebra.Eval.eval ~fuel:(fresh ()) ~advice:(Algebra.Advice.naive advice)
         no_defs drift_db drift_ifp)
  in
  ignore (eval stale ());
  ignore (eval live ());
  let stale_ms, live_ms, _, stale_fp, live_fp =
    U.time_pair_ms ~runs (eval stale) (eval live)
  in
  let agree = stale_fp = live_fp in
  assert agree;
  let speedup = stale_ms /. live_ms in
  (* Drift and re-plan counts, from the registry: one extra collected
     run of the live configuration. *)
  Obs.Metrics.reset ();
  Obs.Metrics.with_collecting (fun () -> ignore (eval live ()));
  let msn = Obs.Metrics.snapshot () in
  let drift_events = Obs.Metrics.counter_total msn "plan/drift" in
  let replans = Obs.Metrics.counter_total msn "plan/replan" in
  Obs.Metrics.reset ();
  let name = Fmt.str "drift-tc-%d" ln in
  U.row "%-16s %10.2f %10.2f %8.2fx %6d %6d %7b@." name stale_ms live_ms
    speedup drift_events replans agree;
  U.record
    [ ("experiment", U.S "e16");
      ("workload", U.S name);
      ("stale_ms", U.F stale_ms);
      ("live_ms", U.F live_ms);
      ("speedup", U.F speedup);
      ("drift_events", U.I drift_events);
      ("replans", U.I replans);
      ("agree", U.B agree) ]

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
  ]

let () =
  (* Usage: main.exe [EXPERIMENT...] [smoke] [--json FILE] [--trace FILE]
     - smoke: reduced workload sizes (the CI smoke stage)
     - --json FILE: also write the run's records as a JSON array
     - --trace FILE: stream every engine's observability events to FILE
       as JSON Lines for the whole run *)
  let trace = ref None in
  let rec parse names args =
    match args with
    | [] -> List.rev names
    | "--json" :: path :: rest ->
      U.set_json_path path;
      parse names rest
    | [ "--json" ] ->
      Fmt.epr "--json requires a file argument@.";
      exit 2
    | "--trace" :: path :: rest ->
      trace := Some path;
      parse names rest
    | [ "--trace" ] ->
      Fmt.epr "--trace requires a file argument@.";
      exit 2
    | "smoke" :: rest ->
      U.set_smoke ();
      parse names rest
    | name :: rest -> parse (name :: names) rest
  in
  let names = parse [] (List.tl (Array.to_list Sys.argv)) in
  let go () =
    match names with
    | [] ->
      List.iter (fun (_, f) -> f ()) experiments;
      micro ()
    | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
            if String.equal name "micro" then micro ()
            else begin
              Fmt.epr "unknown experiment %s (e1..e16, micro)@." name;
              exit 2
            end)
        names
  in
  (match !trace with
  | None -> go ()
  | Some path ->
    (* tmp + rename (and the channel closed before the rename), so an
       interrupted run never leaves a torn trace. *)
    Safe_io.with_file path (fun oc ->
        Datalog.Run.with_obs (Obs.Sink.jsonl oc) go));
  U.flush_json ()

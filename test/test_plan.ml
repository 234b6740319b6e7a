(* Planner tests: stats sampling and persistence, the join-order
   rewrite, semijoin reduction, and the headline property — planned
   evaluation is byte-identical to unplanned evaluation, for the
   two-valued evaluator, the delta (seminaive) path, and the
   three-valued recursive evaluator. *)

open Recalg
open Algebra
module Stats = Plan.Stats
module Planner = Plan.Planner

let check_value = Alcotest.testable Value.pp Value.equal
let vi = Value.int
let vs = Value.sym
let no_defs = Defs.make []
let vpair a b = Value.tuple [ a; b ]
let ipair a b = vpair (vi a) (vi b)

(* --- stats --- *)

let test_stats_observe () =
  let v = Value.set [ ipair 1 10; ipair 2 10; ipair 3 11 ] in
  let s = Stats.observe "r" v Stats.empty in
  Alcotest.(check (option int)) "card" (Some 3) (Stats.card s "r");
  Alcotest.(check (option int)) "distinct col1" (Some 3) (Stats.distinct s "r" 1);
  Alcotest.(check (option int)) "distinct col2" (Some 2) (Stats.distinct s "r" 2);
  Alcotest.(check bool) "fresh" true (Stats.fresh s "r" v);
  let v' = Value.set [ ipair 1 10 ] in
  Alcotest.(check bool) "stale" false (Stats.fresh s "r" v')

let test_stats_roundtrip () =
  let db =
    Db.empty
    |> Db.add "big" (Value.set (List.init 40 (fun i -> ipair i (i mod 4))))
    |> Db.add "tiny" (Value.set [ ipair 0 0 ])
  in
  let s = Stats.of_db db in
  let file = Filename.temp_file "recalg" ".stats" in
  Stats.save file s;
  let s' = Option.get (Stats.load file) in
  Sys.remove file;
  List.iter
    (fun name ->
      Alcotest.(check (option int))
        (name ^ " card") (Stats.card s name) (Stats.card s' name);
      Alcotest.(check (option int))
        (name ^ " fp") (Stats.fingerprint s name) (Stats.fingerprint s' name);
      Alcotest.(check (option int))
        (name ^ " d1") (Stats.distinct s name 1) (Stats.distinct s' name 1))
    [ "big"; "tiny" ];
  (* prune_stale drops the entry whose relation changed. *)
  let db2 = Db.add "tiny" (Value.set [ ipair 5 5 ]) db in
  let pruned = Stats.prune_stale db2 s' in
  Alcotest.(check (option int)) "stale dropped" None (Stats.card pruned "tiny");
  Alcotest.(check (option int)) "fresh kept" (Some 40) (Stats.card pruned "big")

let test_stats_load_garbage () =
  let file = Filename.temp_file "recalg" ".stats" in
  let oc = open_out file in
  output_string oc "not a stats file\n";
  close_out oc;
  Alcotest.(check bool) "garbage -> None" true (Stats.load file = None);
  Sys.remove file;
  Alcotest.(check bool) "missing -> None" true (Stats.load file = None)

(* --- join regions --- *)

(* Component [c] of the leaf reached by [path] from the region root. *)
let key c path = Join.compose (Efun.Proj c) path

(* A chain join a.2 = b.1, b.2 = c.1 written left-deep:
   sigma((a x b) x c). *)
let chain_expr =
  let pa = Efun.Compose (Efun.Proj 1, Efun.Proj 1)
  and pb = Efun.Compose (Efun.Proj 2, Efun.Proj 1)
  and pc = Efun.Proj 2 in
  Expr.(
    select
      (Pred.And
         ( Pred.Eq (key 2 pa, key 1 pb),
           Pred.Eq (key 2 pb, key 1 pc) ))
      (product (product (rel "a") (rel "b")) (rel "c")))

let chain_db na nb nc =
  let mk n = Value.set (List.init n (fun i -> ipair (i mod 7) ((i + 1) mod 7))) in
  Db.empty |> Db.add "a" (mk na) |> Db.add "b" (mk nb) |> Db.add "c" (mk nc)

let test_rewrite_identity_off () =
  let e = chain_expr in
  let p = Planner.create Planner.Off in
  Alcotest.(check bool) "off = id" true (Expr.equal e (Planner.rewrite p e));
  Alcotest.(check bool) "off advice none" true
    (Advice.is_none (Planner.advice p))

let test_rewrite_preserves_chain () =
  let db = chain_db 30 20 10 in
  let e = chain_expr in
  let expected = Eval.eval no_defs db e in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let e' = Planner.rewrite p e in
  Alcotest.check check_value "planned = unplanned" expected
    (Eval.eval no_defs db e');
  Alcotest.check check_value "advice path" expected
    (Eval.eval ~advice:(Planner.advice p) no_defs db e)

(* A region above the DP bound (8 leaves) is ordered by [Cost]'s greedy
   left-deep fallback. Nine relations inside a transitive closure: the
   recursive [t] joined along a chain of eight hops, written left-deep
   from [t] with each hop's selection at its own level (so the
   unplanned run is a sequence of hash joins). One hop is tiny, so the
   greedy order starts there instead. Planned through the rewrite and
   through the advice path, the closure must equal the unplanned one at
   equal fuel. *)
let test_wide_region_greedy_fallback () =
  let n = 12 in
  let ident = Value.set (List.init n (fun i -> ipair i i)) in
  let evens = Value.set (List.init n (fun i -> ipair i (i - (i mod 2)))) in
  let small = Value.set [ ipair 0 0; ipair 2 2 ] in
  let hops =
    List.combine
      [ "h1"; "h2"; "h3"; "h4"; "h5"; "h6"; "h7"; "h8" ]
      [ ident; ident; evens; ident; small; ident; evens; ident ]
  in
  let db =
    List.fold_left
      (fun db (name, v) -> Db.add name v db)
      (Db.add "edge" (Value.set (List.init n (fun i -> ipair i (i + 1)))) Db.empty)
      hops
  in
  (* Each level joins the previous level's last leaf ([Proj 2] of its
     left side; [t] itself at the first level) to the next hop. *)
  let region =
    List.fold_left
      (fun (acc, prev) (name, _) ->
        ( Expr.select
            (Pred.Eq (key 2 prev, key 1 (Efun.Proj 2)))
            (Expr.product acc (Expr.rel name)),
          Join.compose (Efun.Proj 2) (Efun.Proj 1) ))
      (Expr.rel "t", Efun.Proj 1)
      hops
    |> fst
  in
  let rec left k =
    if k = 0 then Efun.Id else Join.compose (Efun.Proj 1) (left (k - 1))
  in
  let tc =
    Expr.(
      ifp "t"
        (union (rel "edge")
           (map (Efun.Tuple_of [ key 1 (left 8); key 2 (Efun.Proj 2) ]) region)))
  in
  let run ?advice e =
    let fuel = Limits.of_int 10_000 in
    let v = Eval.eval ~fuel ?advice no_defs db e in
    (v, Limits.remaining fuel)
  in
  let v0, f0 = run tc in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let v1, f1 = run (Planner.rewrite p tc) in
  let v2, f2 = run ~advice:(Planner.advice p) tc in
  Alcotest.check check_value "rewrite: planned = unplanned" v0 v1;
  Alcotest.check check_value "advice: planned = unplanned" v0 v2;
  Alcotest.(check (option int)) "rewrite: fuel equal" f0 f1;
  Alcotest.(check (option int)) "advice: fuel equal" f0 f2;
  Alcotest.(check bool) "closure grew past the edges" true
    (Value.cardinal v0 > n);
  match
    List.filter (fun r -> List.length r.Planner.leaves >= 9) (Planner.reports p)
  with
  | [] -> Alcotest.fail "no nine-leaf region planned"
  | r :: _ -> Alcotest.(check bool) "wide region reordered" true r.Planner.reordered

let test_reorder_reported () =
  (* Two big relations crossed first syntactically, the tiny centre
     joined last; the planner must reorder and say so in its report —
     and the win must also cover the reshape the reordering owes. *)
  let big i = ipair i (i mod 7) in
  let db =
    Db.empty
    |> Db.add "a" (Value.set (List.init 100 big))
    |> Db.add "b" (Value.set (List.init 100 big))
    |> Db.add "c"
         (Value.set (List.init 4 (fun i -> ipair (i mod 7) ((i + 1) mod 7))))
  in
  let pa = Efun.Compose (Efun.Proj 1, Efun.Proj 1)
  and pb = Efun.Compose (Efun.Proj 2, Efun.Proj 1)
  and pc = Efun.Proj 2 in
  let e =
    Expr.(
      select
        (Pred.And
           (Pred.Eq (key 2 pa, key 1 pc), Pred.Eq (key 2 pb, key 2 pc)))
        (product (product (rel "a") (rel "b")) (rel "c")))
  in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let e' = Planner.rewrite p e in
  Alcotest.check check_value "reordered result equal"
    (Eval.eval no_defs db e) (Eval.eval no_defs db e');
  match Planner.reports p with
  | [ r ] ->
    Alcotest.(check bool) "reordered" true r.Planner.reordered;
    Alcotest.(check bool) "cheaper" true
      (r.Planner.est_cost_chosen <= r.Planner.est_cost_original)
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_semijoin_reported () =
  (* pi_a(sigma_{a.1 = b.1}(a x b)) — b is only touched through the
     equi-key, and its key column repeats, so a semijoin reducer fires. *)
  let a = Value.set (List.init 20 (fun i -> ipair i (i mod 3))) in
  let b = Value.set (List.init 40 (fun i -> ipair (i mod 5) i)) in
  let db = Db.empty |> Db.add "a" a |> Db.add "b" b in
  let e =
    Expr.(
      map (Efun.Proj 1)
        (select
           (Pred.Eq (key 1 (Efun.Proj 1), key 1 (Efun.Proj 2)))
           (product (rel "a") (rel "b"))))
  in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let e' = Planner.rewrite p e in
  Alcotest.check check_value "semijoin result equal"
    (Eval.eval no_defs db e) (Eval.eval no_defs db e');
  match Planner.reports p with
  | [ r ] -> Alcotest.(check int) "one semijoin" 1 r.Planner.semijoins
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_pushdown_attaches_once () =
  (* A per-leaf conjunct plus an equi conjunct: the pushdown must apply
     exactly once and the result stay equal. *)
  let db = chain_db 25 25 25 in
  let e =
    Expr.(
      select
        (Pred.And
           ( Pred.Eq
               (key 2 (Efun.Proj 1), key 1 (Efun.Proj 2)),
             Pred.Lt (key 1 (Efun.Proj 1), Efun.Const (vi 5)) ))
        (product (rel "a") (rel "b")))
  in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let e' = Planner.rewrite p e in
  Alcotest.check check_value "pushdown result equal"
    (Eval.eval no_defs db e) (Eval.eval no_defs db e');
  match Planner.reports p with
  | [ r ] -> Alcotest.(check int) "one pushdown" 1 r.Planner.pushdowns
  | _ -> Alcotest.fail "expected one report"

let test_fuel_pinned () =
  (* Plan choice must not change fuel on the shapes we ship: transitive
     closure over the planned chain join spends the same fuel planned
     and unplanned (documented caveat: this is pinned by test, not
     promised by the contract). *)
  let db = chain_db 30 12 6 in
  let tc =
    Expr.(
      ifp "t"
        (union (rel "a")
           (map
              (Efun.Tuple_of
                 [ Efun.Compose (Efun.Proj 1, Efun.Proj 1);
                   Efun.Compose (Efun.Proj 2, Efun.Proj 2) ])
              (select
                 (Pred.Eq (key 2 (Efun.Proj 1), key 1 (Efun.Proj 2)))
                 (product (rel "t") (rel "a"))))))
  in
  let run advice =
    let fuel = Limits.of_int 10_000 in
    let v = Eval.eval ~fuel ?advice no_defs db tc in
    (v, Limits.remaining fuel)
  in
  let v0, f0 = run None in
  let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
  let v1, f1 = run (Some (Planner.advice p)) in
  Alcotest.check check_value "tc equal" v0 v1;
  Alcotest.(check (option int)) "fuel equal" f0 f1

(* The planner changes which expression runs, never how an operator
   runs: under a [Cost] planner's advice, evaluation takes the paths —
   probes, fused joins, fixpoint rounds — that the rewritten expression
   takes under the default advice. Both cases are tiny, where a
   size-based override of the evaluators' choice would fire: a closure
   over a 12-edge chain and a 2x2 equi-join. *)
let test_advice_takes_default_paths () =
  let chain =
    Db.add "edge" (Value.set (List.init 12 (fun i -> ipair i (i + 1)))) Db.empty
  in
  let tc =
    Expr.(
      ifp "x"
        (union (rel "edge")
           (map
              (Efun.Tuple_of
                 [ Efun.Compose (Efun.Proj 1, Efun.Proj 1);
                   Efun.Compose (Efun.Proj 2, Efun.Proj 2) ])
              (select
                 (Pred.Eq (key 2 (Efun.Proj 1), key 1 (Efun.Proj 2)))
                 (product (rel "x") (rel "edge"))))))
  in
  let join =
    Result.get_ok
      (Parser.parse_expr "sel[pi1 . pi1 = pi1 . pi2]({[1,2],[2,3]} x {[1,5],[2,6]})")
  in
  let counters run =
    Obs.Metrics.reset ();
    Obs.Metrics.with_collecting (fun () -> ignore (run ()));
    let sn = Obs.Metrics.snapshot () in
    Obs.Metrics.reset ();
    List.map (Obs.Metrics.counter_total sn)
      [ "join/probe"; "plan/fused"; "plan/unfused"; "eval/ifp_iter" ]
  in
  List.iter
    (fun (label, db, e) ->
      let planner () = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
      let advice = Planner.advice (planner ()) in
      let rewritten = Planner.rewrite (planner ()) e in
      Alcotest.(check (list int)) label
        (counters (fun () -> Eval.eval no_defs db rewritten))
        (counters (fun () -> Eval.eval ~advice no_defs db e)))
    [ ("tc over a 12-edge chain", chain, tc); ("2x2 join", Db.empty, join) ]

(* --- QCheck: planned == unplanned on random join regions --- *)

(* Random region: a random product shape over 2-4 literal leaves of
   integer pairs, random equi/pushdown conjuncts over leaf components,
   sometimes wrapped in a projection to one leaf (the semijoin
   opportunity). *)

type rshape = RLeaf of int | RNode of rshape * rshape

let rec rshape_gen lo hi =
  QCheck.Gen.(
    if hi - lo = 1 then return (RLeaf lo)
    else
      let* s = int_range (lo + 1) (hi - 1) in
      let* l = rshape_gen lo s in
      let* r = rshape_gen s hi in
      return (RNode (l, r)))

let rec rshape_paths s pfx =
  match s with
  | RLeaf i -> [ (i, pfx) ]
  | RNode (l, r) ->
    rshape_paths l (Join.compose (Efun.Proj 1) pfx)
    @ rshape_paths r (Join.compose (Efun.Proj 2) pfx)

let region_gen =
  QCheck.Gen.(
    let* n = int_range 2 4 in
    let* shape = rshape_gen 0 n in
    let paths = rshape_paths shape Efun.Id in
    let leaf_gen =
      let* sz = int_range 0 5 in
      let* pairs = list_size (return sz) (pair (int_range 0 3) (int_range 0 3)) in
      return (Expr.lit (List.map (fun (a, b) -> ipair a b) pairs))
    in
    let* leaves = list_size (return n) leaf_gen in
    let leaves = Array.of_list leaves in
    let conj_gen =
      let* i = int_range 0 (n - 1) in
      let* ci = int_range 1 2 in
      let* kind = int_range 0 2 in
      if kind < 2 then
        let* j = int_range 0 (n - 1) in
        let* cj = int_range 1 2 in
        return
          (Pred.Eq
             (key ci (List.assoc i paths), key cj (List.assoc j paths)))
      else
        let* bound = int_range 0 3 in
        return (Pred.Leq (key ci (List.assoc i paths), Efun.Const (vi bound)))
    in
    let* nconj = int_range 1 3 in
    let* conjs = list_size (return nconj) conj_gen in
    let rec build s =
      match s with
      | RLeaf i -> leaves.(i)
      | RNode (l, r) -> Expr.product (build l) (build r)
    in
    let p =
      List.fold_left (fun acc c -> Pred.And (acc, c)) (List.hd conjs)
        (List.tl conjs)
    in
    let joined = Expr.select p (build shape) in
    let* wrap = int_range 0 2 in
    if wrap = 0 then
      let* i = int_range 0 (n - 1) in
      return (Expr.map (List.assoc i paths) joined)
    else return joined)

let region_arb = QCheck.make ~print:Expr.to_string region_gen

let test_qcheck_eval_planned mode =
  QCheck.Test.make
    ~name:("eval planned=unplanned " ^ Planner.mode_to_string mode)
    ~count:(Tgen.qcount 200) region_arb (fun e ->
      let expected = Eval.eval no_defs Db.empty e in
      let p = Planner.create mode in
      let via_rewrite = Eval.eval no_defs Db.empty (Planner.rewrite p e) in
      let via_advice =
        Eval.eval ~advice:(Planner.advice p) no_defs Db.empty e
      in
      Value.equal expected via_rewrite && Value.equal expected via_advice)

(* Transitive closure over a random graph: the recursive three-valued
   evaluator and the seminaive delta path, planned vs unplanned. *)
let tc_defs =
  Defs.make
    [ Defs.constant "tc"
        Expr.(
          union (rel "edge")
            (map
               (Efun.Tuple_of
                  [ Efun.Compose (Efun.Proj 1, Efun.Proj 1);
                    Efun.Compose (Efun.Proj 2, Efun.Proj 2) ])
               (select
                  (Pred.Eq
                     (key 2 (Efun.Proj 1), key 1 (Efun.Proj 2)))
                  (product (rel "tc") (rel "edge"))))) ]

let db_of_edges edges =
  let v =
    Value.set (List.map (fun (a, b) -> vpair (vs a) (vs b)) edges)
  in
  Db.add "edge" v Db.empty

let test_qcheck_rec_eval_planned =
  QCheck.Test.make ~name:"rec_eval planned=unplanned"
    ~count:(Tgen.qcount 100) Tgen.graph_arb (fun edges ->
      let db = db_of_edges edges in
      let q = Expr.rel "tc" in
      let expected = Rec_eval.query (Rec_eval.solve tc_defs db) q in
      let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
      let got = Rec_eval.query (Rec_eval.solve ~advice:(Planner.advice p) tc_defs db) q in
      Value.equal expected.Rec_eval.low got.Rec_eval.low
      && Value.equal expected.Rec_eval.high got.Rec_eval.high)

let test_qcheck_ifp_planned =
  QCheck.Test.make ~name:"ifp delta path planned=unplanned"
    ~count:(Tgen.qcount 100) Tgen.graph_arb (fun edges ->
      let db = db_of_edges edges in
      let tc =
        Expr.(
          ifp "t"
            (union (rel "edge")
               (map
                  (Efun.Tuple_of
                     [ Efun.Compose (Efun.Proj 1, Efun.Proj 1);
                       Efun.Compose (Efun.Proj 2, Efun.Proj 2) ])
                  (select
                     (Pred.Eq
                        (key 2 (Efun.Proj 1), key 1 (Efun.Proj 2)))
                     (product (rel "t") (rel "edge"))))))
      in
      let expected = Eval.eval no_defs db tc in
      let p = Planner.create ~stats:(Stats.of_db db) Planner.Cost in
      let advice = Planner.advice p in
      List.for_all
        (fun advice -> Value.equal expected (Eval.eval ~advice no_defs db tc))
        [ advice; Advice.naive advice ])

let suite =
  [
    Alcotest.test_case "stats observe" `Quick test_stats_observe;
    Alcotest.test_case "stats roundtrip" `Quick test_stats_roundtrip;
    Alcotest.test_case "stats load garbage" `Quick test_stats_load_garbage;
    Alcotest.test_case "rewrite off = id" `Quick test_rewrite_identity_off;
    Alcotest.test_case "rewrite preserves chain" `Quick
      test_rewrite_preserves_chain;
    Alcotest.test_case "nine-leaf region: greedy fallback" `Quick
      test_wide_region_greedy_fallback;
    Alcotest.test_case "reorder reported" `Quick test_reorder_reported;
    Alcotest.test_case "semijoin reported" `Quick test_semijoin_reported;
    Alcotest.test_case "pushdown attaches once" `Quick
      test_pushdown_attaches_once;
    Alcotest.test_case "fuel pinned on tc" `Quick test_fuel_pinned;
    Alcotest.test_case "planned advice takes the default paths" `Quick
      test_advice_takes_default_paths;
    QCheck_alcotest.to_alcotest (test_qcheck_eval_planned Planner.Cost);
    QCheck_alcotest.to_alcotest test_qcheck_rec_eval_planned;
    QCheck_alcotest.to_alcotest test_qcheck_ifp_planned;
  ]

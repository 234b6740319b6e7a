(* Complexity guards: each cliff family runs in process at a size N and at
   4N, and the ratio of the words it allocates is bounded. At one domain
   allocation repeats exactly, so a guard reads the same on any machine,
   and a quadratic shape at these sizes allocates ~16× for 4× the input
   where a linear one allocates ~4×. Three cliffs allocated nothing extra
   and are timed instead: the listing of one-fact predicates, and the
   negation chain under [stratified] and under [translate] (see there).
   Every guard also runs the slow reference shape and asserts that it
   breaks the bound, so the bound separates the two, where that shape is
   still in the tree. *)

open Recalg
open Algebra

(* Minor words allocated by one run of [f]. *)
let allocated f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Minor words allocated by [f], with the sets it interns already
   interned by a first run: the guard counts the evaluation, not the
   first sight of each value. *)
let words f =
  ignore (Sys.opaque_identity (f ()));
  allocated f

(* [examples/programs/even_ifp.alg] at cut-off [n]: an [IFP] of n/2
   rounds from a one-element base, solved as [recalg alg --plan cost]
   solves it. The semi-naive loop allocates linearly in the rounds, a
   naive one re-reads the whole set every round. Measured: 31,786 →
   125,761 words (×3.96) under the cost planner's advice, 664,326 →
   11,031,366 (×16.6) under its naive overlay. *)
let test_even_ifp () =
  let evens n =
    Defs.make
      [ Defs.constant "evens"
          Expr.(
            ifp "s"
              (union
                 (lit [ Value.int 0 ])
                 (select
                    (Pred.Lt (Efun.Id, Efun.Const (Value.int n)))
                    (map (Efun.add_const 2) (rel "s"))))) ]
  in
  let planner = Plan.Planner.create ~stats:(Plan.Stats.of_db Db.empty) Plan.Planner.Cost in
  let ratio advice =
    let run n () = Rec_eval.solve ~advice (evens n) Db.empty in
    words (run 1000) /. words (run 250)
  in
  let bound = 6. in
  let cost = ratio (Plan.Planner.advice planner) in
  let naive = ratio (Advice.naive (Plan.Planner.advice planner)) in
  if cost > bound then Alcotest.failf "even_ifp, --plan cost: ×%.2f words for 4× the rounds" cost;
  if naive <= bound then
    Alcotest.failf "even_ifp, naive: ×%.2f words, inside the bound ×%.0f" naive bound

(* A join projected onto one side is a semijoin: [r = {[i, i mod 2]}]
   and [s = {[j mod 2, j]}] join on the parity in n²/2 pairs, and
   [map[pi2 . pi2]] of the join ([map[pi1 . pi1]]) has the n elements
   of [s]'s second column ([r]'s first). Evaluated, each allocates
   linearly: 10,708 → 46,985 words (×4.39) and 9,450 → 41,977 (×4.44)
   at n = 250 → 1000. A join that builds its pairs and then maps them
   read ×18.8 and ×18.4 (3,188,603 → 59,967,366 words). The unfused
   reference, which materialises the product, reads ×17.0 and ×15.9;
   it is measured at n = 125 → 500, as at n = 1000 its million product
   pairs would stay interned for the rest of the suite. *)
let test_projected_join () =
  let bound = 6. in
  let pair a b = Value.pair (Value.int a) (Value.int b) in
  let db n =
    Db.of_list
      [ ("r", List.init n (fun i -> pair i (i mod 2)));
        ("s", List.init n (fun j -> pair (j mod 2) j)) ]
  in
  let on side f = Efun.Compose (f, Efun.Proj side) in
  let joined =
    Expr.select
      (Pred.Eq (on 1 (Efun.Proj 2), on 2 (Efun.Proj 1)))
      (Expr.product (Expr.rel "r") (Expr.rel "s"))
  in
  List.iter
    (fun (label, f) ->
      let ratio advice n =
        let run n =
          let db = db n in
          fun () -> Eval.eval ~advice (Defs.make []) db (Expr.map f joined)
        in
        words (run (4 * n)) /. words (run n)
      in
      let r = ratio Advice.none 250 in
      if r > bound then Alcotest.failf "%s: ×%.2f words for 4× the relations" label r;
      let u = ratio (Advice.unfused Advice.none) 125 in
      if u <= bound then
        Alcotest.failf "%s, unfused: ×%.2f words, inside the bound ×%.0f" label u bound)
    [ ("map[pi2 . pi2]", on 2 (Efun.Proj 2)); ("map[pi1 . pi1]", on 1 (Efun.Proj 1)) ]

(* Negation chains under [valid] and [wellfounded], grounding excluded:
   the WIN chain of n moves ([Tgen.win_chain]) and the unfounded-set
   chain ([Tgen.unfounded_chain]). Solving interns nothing, so one run
   is measured. The solver allocates linearly: 63,045 → 284,889 words
   (×4.52) and 153,068 → 661,725 (×4.32) at n = 250 → 1000. The
   Section 2.2 iteration runs about n/2 (WIN) or n (unfounded) rounds
   of two whole-program passes; it is measured at n = 125 → 500, where
   it reads ×13.5 (826,456 → 11,170,521) and ×15.6 (2,736,795 →
   42,771,236), because at n = 1000 one run takes most of a second. *)
let test_negation_chains () =
  let bound = 6. in
  List.iter
    (fun (family, instance) ->
      let ground n =
        let program, edb = instance n in
        Datalog.Grounder.ground program edb
      in
      let ratio n solve =
        let small = ground n and large = ground (4 * n) in
        allocated (fun () -> solve large) /. allocated (fun () -> solve small)
      in
      List.iter
        (fun (name, solve) ->
          let r = ratio 250 solve in
          if r > bound then
            Alcotest.failf "%s, %s: ×%.2f words for 4× the chain" family name r)
        [ ("Valid.solve", Datalog.Valid.solve);
          ("Wellfounded.solve", Datalog.Wellfounded.solve) ];
      let r = ratio 125 Datalog.Valid.reference in
      if r <= bound then
        Alcotest.failf "%s, Valid.reference: ×%.2f words, inside the bound ×%.0f"
          family r bound)
    [ ("WIN chain", Tgen.win_chain); ("unfounded-set chain", Tgen.unfounded_chain) ]

(* Every predicate's true and undefined facts, as [recalg run] lists
   them. *)
let listing interp =
  List.map
    (fun p ->
      (Datalog.Interp.true_tuples interp p, Datalog.Interp.undef_tuples interp p))
    (Datalog.Interp.preds interp)

(* The left-linear reach chain ([Tgen.reach_chain]) under [valid], as
   [recalg run] takes it: parsing, grounding, solving and listing. The
   grounder fires a body position only when its store has a delta, so
   the four allocate linearly: 218,300 → 894,137 words (×4.10) at
   n = 250 → 1000. Firing every rule unrestricted every round (the
   [`Naive] variant) re-reads all of [reach] each round: 2,037,723 →
   31,110,772 (×15.3) at n = 125 → 500. A grounder that re-fired the
   [edge] position every round, though its store never has a delta,
   read ×14.0 at n = 250 → 1000. *)
let test_reach_chain () =
  let bound = 6. in
  let ratio n strategy =
    let run n =
      let text = Tgen.reach_chain n in
      fun () ->
        let program, edb = Datalog.Parser.parse_exn text in
        listing (Datalog.Valid.solve (Datalog.Grounder.ground ~strategy program edb))
    in
    words (run (4 * n)) /. words (run n)
  in
  let r = ratio 250 `Seminaive in
  if r > bound then
    Alcotest.failf
      "reach chain, parse + ground + solve + listing: ×%.2f words for 4× the chain" r;
  let naive = ratio 125 `Naive in
  if naive <= bound then
    Alcotest.failf "reach chain, naive grounding: ×%.2f words, inside the bound ×%.0f"
      naive bound

(* DRed on the reach chain t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y),
   t(Y, Z). over n edges e(i, i+1), through [Incremental.update]: delete
   the first edge and refill it, then the same with the last edge. Each
   batch changes n of the n(n+1)/2 facts, and maintenance costs what it
   changes: 536,216 → 2,219,400 words (×4.14) at n = 250 → 1000. At
   4a80966, whose rederivation fired every rule over all the survivors
   and whose overdeletion built its stores and their indexes again every
   round, it read ×17.2 (20,520,699 → 353,169,925). That shape is gone
   from the tree, so no slow reference is asserted against here. The
   middle edge is left out: deleting it removes n²/4 facts, so ×16 is
   the right answer there. *)
let test_dred_chain () =
  let program =
    fst (Datalog.Parser.parse_exn "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).")
  in
  let run n =
    let t =
      match
        Datalog.Incremental.init ~fuel:Limits.unlimited program
          (Tgen.int_edb "e" (Tgen.int_chain n))
      with
      | Ok t -> t
      | Error msg -> Alcotest.fail msg
    in
    let batch ins i =
      let edge = [ Value.int i; Value.int (i + 1) ] in
      (if ins then Datalog.Edb.Update.insert else Datalog.Edb.Update.delete)
        "e" edge Datalog.Edb.Update.empty
    in
    fun () ->
      List.iter
        (fun i ->
          ignore (Datalog.Incremental.update t (batch false i));
          ignore (Datalog.Incremental.update t (batch true i)))
        [ 0; n - 1 ]
  in
  let r = words (run 1000) /. words (run 250) in
  if r > 6. then
    Alcotest.failf "reach chain, DRed delete and refill: ×%.2f words for 4× the chain" r

(* [time large /. time small], each time the least CPU time of nine
   runs of [read] on a fresh [setup] of that size, which is not timed.
   The two sizes alternate, so a slow stretch of the machine slows both
   alike. *)
let time_ratio ~small ~large read =
  let time setup =
    let x = setup () in
    Gc.minor ();
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (read x));
    Sys.time () -. t0
  in
  let s = ref infinity and l = ref infinity in
  for _ = 1 to 9 do
    s := Float.min !s (time small);
    l := Float.min !l (time large)
  done;
  !l /. !s

(* n one-fact predicates ([Tgen.one_fact_preds]) under [valid].
   Parsing, grounding and solving allocate linearly: 319,176 → 1,328,537
   words (×4.16) at n = 1000 → 4000. Listing them ([Interp.preds], then
   each predicate's true and undefined facts) on a fresh interpretation
   builds the listing inside the measurement. A reader that found its
   predicate by a scan over all of them would be quadratic without
   allocating anything per step, so the listing is timed instead of
   counted: ×4.5 to ×5.8 at n = 1000 → 4000. A listing that scans every
   predicate's name for each predicate reads ×12.4 to ×16.4 at n = 500
   → 2000, and one that filters the whole fact set once per predicate
   read ×16.9 to ×18.8 at n = 1000 → 4000. *)
let test_one_fact_listing () =
  let bound = 8. in
  let ratio n read =
    let fresh n =
      let program, edb = Datalog.Parser.parse_exn (Tgen.one_fact_preds n) in
      let pg = Datalog.Grounder.ground program edb in
      fun () -> Datalog.Valid.solve pg
    in
    time_ratio ~small:(fresh n) ~large:(fresh (4 * n)) read
  in
  let scan interp =
    let names = Datalog.Interp.preds interp in
    List.map (fun p -> List.filter (String.equal p) names) names
  in
  let solve n =
    let text = Tgen.one_fact_preds n in
    fun () ->
      let program, edb = Datalog.Parser.parse_exn text in
      Datalog.Valid.solve (Datalog.Grounder.ground program edb)
  in
  let r = words (solve 4000) /. words (solve 1000) in
  if r > 6. then
    Alcotest.failf
      "one-fact predicates, parse + ground + solve: ×%.2f words for 4× the predicates" r;
  let r = ratio 1000 listing in
  if r > bound then
    Alcotest.failf "one-fact predicates, listing: ×%.2f CPU time for 4× the predicates"
      r;
  let r = ratio 500 scan in
  if r <= bound then
    Alcotest.failf
      "one-fact predicates, scanning listing: ×%.2f CPU time, inside the bound ×%.0f" r
      bound

(* A negation chain of [n] strata as program text: [e.], then
   [p_i :- e, not p_(i+1).] for i < n - 1, and [p_(n-1) :- e.]. *)
let negation_chain n =
  String.concat "\n"
    (("e." :: List.init (n - 1) (fun i -> Printf.sprintf "p%d :- e, not p%d." i (i + 1)))
    @ [ Printf.sprintf "p%d :- e." (n - 1) ])

let parse text = Datalog.Parser.parse_exn text

(* Stratifying the negation chain, as [recalg check] does: one pass over
   [Graph.sccs], parsing included: 283,272 → 1,126,320 words (×3.98)
   at n = 1000 → 4000. Re-scanning the edges until the strata settled
   read ×18.7 (37,143,568 → 693,931,234) at 5e419b4, the parent of the
   one-pass fix. That shape is gone from the tree, so no slow reference
   is asserted against here. *)
let test_stratify_chain () =
  let analyse n =
    let text = negation_chain n in
    fun () -> Datalog.Stratify.analyse (fst (parse text))
  in
  (match analyse 4000 () with
  | Datalog.Stratify.Stratified groups ->
    Alcotest.(check int) "strata" 4000 (List.length groups)
  | Datalog.Stratify.Not_stratified _ -> Alcotest.fail "the chain is stratified");
  let r = words (analyse 4000) /. words (analyse 1000) in
  if r > 6. then
    Alcotest.failf "negation chain, parse + stratify: ×%.2f words for 4× the strata" r

(* The negation chain under [Seminaive.stratified] at two domains, as
   [recalg run --semantics stratified --domains 2] runs it: the
   stratification pass splits each stratum into its components once:
   991,084 → 4,019,396 words (×4.06) at n = 1000 → 4000. Splitting each
   stratum by a walk over every rule of the program read ×15.7
   (41,972,538 → 659,945,350) at 3d2fe40, the parent of the fix. That
   shape is gone from the tree, so no slow reference is asserted
   against here. *)
let test_stratified_chain_domains () =
  let run n =
    let program, edb = parse (negation_chain n) in
    fun () ->
      match Datalog.Seminaive.stratified program edb with
      | Ok db -> db
      | Error msg -> Alcotest.fail msg
  in
  Pool.set_domains 2;
  Fun.protect ~finally:(fun () -> Pool.set_domains 1) @@ fun () ->
  let r = words (run 4000) /. words (run 1000) in
  if r > 6. then
    Alcotest.failf "negation chain, stratified at 2 domains: ×%.2f words for 4× the strata" r

(* The reach chain ([Tgen.reach_chain]) under [Inflationary.solve],
   grounding excluded: a stage decides each ground rule once, when its
   last positive atom arrives: 74,156 → 296,344 words (×4.00) at
   n = 1000 → 4000. Testing every rule at every stage read ×15.9
   (31,387,611 → 498,086,433) at 3d2fe40, the parent of the fix. That
   shape is gone from the tree, so no slow reference is asserted
   against here. *)
let test_inflationary_reach () =
  let run n =
    let program, edb = parse (Tgen.reach_chain n) in
    let pg = Datalog.Grounder.ground program edb in
    fun () -> Datalog.Inflationary.solve pg
  in
  let r = words (run 4000) /. words (run 1000) in
  if r > 6. then
    Alcotest.failf "reach chain, inflationary: ×%.2f words for 4× the chain" r

(* The negation chain at n = 1000 and 4000, parsed afresh for each run
   and not timed, under [read]; the CPU-time ratio, as [time_ratio]
   measures it. *)
let chain_time_ratio read =
  let fresh n =
    let text = negation_chain n in
    fun () -> parse text
  in
  time_ratio ~small:(fresh 1000) ~large:(fresh 4000) read

(* The negation chain under [Seminaive.stratified] at one domain, as
   [recalg run --semantics stratified] runs it: the rules are bucketed
   by stratum once. Filtering the whole rule list once per stratum is
   quadratic without allocating more per step (×3.96 words at b6a3186,
   the parent of the fix), so the run is timed: ×4.9 to ×5.7 (~5 → ~30
   ms) at n = 1000 → 4000, bound 8, against ×13.2 to ×14.2 (~30 → ~420
   ms) at b6a3186. *)
let test_stratified_chain_timed () =
  let r =
    chain_time_ratio (fun (program, edb) -> Datalog.Seminaive.stratified program edb)
  in
  if r > 8. then
    Alcotest.failf "negation chain, stratified: ×%.2f CPU time for 4× the strata" r

(* The negation chain through [Datalog_to_alg.translate] and the
   printing [recalg translate] does: the rules are bucketed by predicate
   once. Filtering the rule list once per predicate allocated nothing
   extra either (×3.96 words at 3d2fe40, the parent of the fix), so it
   is timed: ×4.1 to ×4.8 (~8 → ~37 ms) at n = 1000 → 4000, bound 8,
   against ×15.1 to ×16.4 (~67 → ~1060 ms) at 3d2fe40. *)
let test_translate_chain_timed () =
  let translate (program, edb) =
    let tr = Translate.Datalog_to_alg.translate program edb in
    Fmt.str "%% database@.%a@.%% algebra= program (Proposition 6.1)@.%a@." Db.pp
      tr.Translate.Datalog_to_alg.db Defs.pp tr.Translate.Datalog_to_alg.defs
  in
  let r = chain_time_ratio translate in
  if r > 8. then
    Alcotest.failf
      "negation chain, translate and print: ×%.2f CPU time for 4× the strata" r

let suite =
  [ Alcotest.test_case "even_ifp under --plan cost" `Quick test_even_ifp;
    Alcotest.test_case "projected joins are semijoins" `Quick test_projected_join;
    Alcotest.test_case "negation chains under valid and wellfounded" `Quick
      test_negation_chains;
    Alcotest.test_case "reach chain under valid, grounding included" `Quick
      test_reach_chain;
    Alcotest.test_case "listing one-fact predicates" `Quick test_one_fact_listing;
    Alcotest.test_case "stratifying a negation chain" `Quick test_stratify_chain;
    Alcotest.test_case "negation chain, stratified at two domains" `Quick
      test_stratified_chain_domains;
    Alcotest.test_case "reach chain under inflationary" `Quick test_inflationary_reach;
    Alcotest.test_case "reach chain, DRed delete and refill" `Quick test_dred_chain;
    Alcotest.test_case "negation chain, stratified, timed" `Quick
      test_stratified_chain_timed;
    Alcotest.test_case "negation chain, translated and printed, timed" `Quick
      test_translate_chain_timed ]

(* Translation tests: the constructive content of Propositions 4.2, 5.1,
   5.2, 5.3, 5.4, 6.1 and Theorems 3.5 / 6.2, checked on hand-written and
   random instances. *)

open Recalg
open Translate

let check_tvl = Alcotest.testable Tvl.pp Tvl.equal
let vi = Value.int
let vs = Value.sym
let no_defs = Algebra.Defs.make []

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

let win_body =
  Algebra.Expr.(pi 1 (diff (rel "move") (product (pi 1 (rel "move")) (rel "win"))))

let win_defs = Algebra.Defs.make [ Algebra.Defs.constant "win" win_body ]

let move_db edges =
  Algebra.Db.of_list
    [ ("move", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]

let vset_equal (a : Algebra.Rec_eval.vset) (b : Algebra.Rec_eval.vset) =
  Value.equal a.Algebra.Rec_eval.low b.Algebra.Rec_eval.low
  && Value.equal a.Algebra.Rec_eval.high b.Algebra.Rec_eval.high

(* Evaluate an algebra= query two ways: directly (Rec_eval) and through
   the Proposition 5.4 translation + valid datalog semantics. *)
let both_ways defs db query =
  let direct = Algebra.Rec_eval.query (Algebra.Rec_eval.solve defs db) query in
  let tr = Alg_to_datalog.translate defs db query in
  let interp = Datalog.Run.valid tr.Alg_to_datalog.program tr.Alg_to_datalog.edb in
  let via_datalog = Alg_to_datalog.set_of_interp interp tr.Alg_to_datalog.query_pred in
  (direct, via_datalog)

(* --- Prop 5.4: algebra= -> deduction, valid semantics --- *)

let test_p54_win_cyclic () =
  let db = move_db [ ("a", "b"); ("b", "a"); ("b", "c") ] in
  let direct, via = both_ways win_defs db (Algebra.Expr.rel "win") in
  Alcotest.(check bool) "three-valued answers equal" true (vset_equal direct via)

let test_p54_nonrecursive_ops () =
  let db = Algebra.Db.of_list [ ("d", [ vi 1; vi 2; vi 3 ]) ] in
  let query =
    Algebra.Expr.(
      union
        (select (Algebra.Pred.Lt (Algebra.Efun.Id, Algebra.Efun.Const (vi 3))) (rel "d"))
        (map (Algebra.Efun.add_const 10) (rel "d")))
  in
  let direct, via = both_ways no_defs db query in
  Alcotest.(check bool) "equal" true (vset_equal direct via);
  Alcotest.(check bool) "two-valued" true (Algebra.Rec_eval.is_defined direct)

let test_p54_product () =
  let db = Algebra.Db.of_list [ ("d", [ vi 1; vi 2 ]); ("e", [ vs "x" ]) ] in
  let direct, via = both_ways no_defs db Algebra.Expr.(product (rel "d") (rel "e")) in
  Alcotest.(check bool) "pairs equal" true (vset_equal direct via);
  Alcotest.(check int) "2 pairs" 2 (Value.cardinal direct.Algebra.Rec_eval.low)

let test_p54_s_minus_s () =
  let defs =
    Algebra.Defs.make
      [ Algebra.Defs.constant "s" Algebra.Expr.(diff (lit [ vs "a" ]) (rel "s")) ]
  in
  let direct, via = both_ways defs Algebra.Db.empty (Algebra.Expr.rel "s") in
  Alcotest.(check bool) "undefined preserved" true (vset_equal direct via);
  Alcotest.check check_tvl "a undef both ways" Tvl.Undef
    (Algebra.Rec_eval.member via (vs "a"))

(* --- Prop 5.1: IFP -> deduction under inflationary semantics --- *)

let test_p51_ifp_inflationary () =
  let db =
    Algebra.Db.of_list
      [ ("edge", [ Value.pair (vi 1) (vi 2); Value.pair (vi 2) (vi 3) ]) ]
  in
  let q =
    Algebra.Expr.(ifp "x" (union (rel "edge") (compose (rel "edge") (rel "x"))))
  in
  let direct = Algebra.Eval.eval no_defs db q in
  let tr = Alg_to_datalog.translate no_defs db q in
  Alcotest.(check bool) "translation flags IFP" true tr.Alg_to_datalog.uses_ifp;
  let inf = Datalog.Run.inflationary tr.Alg_to_datalog.program tr.Alg_to_datalog.edb in
  let via = Alg_to_datalog.set_of_interp inf tr.Alg_to_datalog.query_pred in
  Alcotest.(check bool) "inflationary matches" true
    (Value.equal via.Algebra.Rec_eval.low direct)

let test_p51_valid_differs_example4 () =
  (* Example 4: for IFP_{x.{a}-x} the naive translation under the VALID
     semantics leaves q(a) undefined — the reason Prop 5.2 is needed. *)
  let q = Algebra.Expr.(ifp "x" (diff (lit [ vs "a" ]) (rel "x"))) in
  let tr = Alg_to_datalog.translate no_defs Algebra.Db.empty q in
  let valid = Datalog.Run.valid tr.Alg_to_datalog.program tr.Alg_to_datalog.edb in
  let via = Alg_to_datalog.set_of_interp valid tr.Alg_to_datalog.query_pred in
  Alcotest.check check_tvl "undef under valid" Tvl.Undef
    (Algebra.Rec_eval.member via (vs "a"));
  let inf = Datalog.Run.inflationary tr.Alg_to_datalog.program tr.Alg_to_datalog.edb in
  let via_inf = Alg_to_datalog.set_of_interp inf tr.Alg_to_datalog.query_pred in
  Alcotest.check check_tvl "true under inflationary" Tvl.True
    (Algebra.Rec_eval.member via_inf (vs "a"))

(* --- Prop 5.2: stage indices recover the inflationary model --- *)

let test_p52_example4 () =
  let q = Algebra.Expr.(ifp "x" (diff (lit [ vs "a" ]) (rel "x"))) in
  let tr = Alg_to_datalog.translate no_defs Algebra.Db.empty q in
  let staged, _bound =
    Inflationary_removal.eval tr.Alg_to_datalog.program tr.Alg_to_datalog.edb
  in
  let via = Alg_to_datalog.set_of_interp staged tr.Alg_to_datalog.query_pred in
  Alcotest.check check_tvl "a true under valid+stages" Tvl.True
    (Algebra.Rec_eval.member via (vs "a"))

let test_p52_general_program () =
  (* An arbitrary non-stratified program: staged valid = inflationary. *)
  let program, edb =
    Datalog.Parser.parse_exn
      "e(1,2). e(2,3). p(X) :- e(X,Y), not q(Y). q(X) :- e(X,Y), not p(X)."
  in
  let inf = Datalog.Run.inflationary program edb in
  let staged, _ = Inflationary_removal.eval program edb in
  List.iter
    (fun pred ->
      let a = List.sort compare (Datalog.Interp.true_tuples inf pred) in
      let b = List.sort compare (Datalog.Interp.true_tuples staged pred) in
      Alcotest.(check bool) (pred ^ " equal") true (a = b))
    [ "p"; "q" ]

let test_p52_transform_is_stratified_by_stage () =
  (* The staged program's valid model is total — stage indices break the
     negative cycles ("local stratification"). *)
  let program, edb =
    Datalog.Parser.parse_exn "r(a). q(X) :- r(X), not q(X)."
  in
  let program', edb' = Inflationary_removal.transform ~max_stage:4 program edb in
  let interp = Datalog.Run.valid program' edb' in
  Alcotest.(check bool) "total" true (Datalog.Interp.is_total interp)

(* --- Prop 6.1: safe deduction -> algebra= --- *)

let run_p61 src =
  let program, edb = Datalog.Parser.parse_exn src in
  let tr = Datalog_to_alg.translate program edb in
  let sol = Algebra.Rec_eval.solve tr.Datalog_to_alg.defs tr.Datalog_to_alg.db in
  (program, edb, tr, sol)

let agree_on program edb tr sol pred =
  let interp = Datalog.Run.valid program edb in
  let certain, possible = Datalog_to_alg.pred_tuples sol tr pred in
  let dl_true = Datalog.Interp.true_tuples interp pred in
  let dl_undef = Datalog.Interp.undef_tuples interp pred in
  let sort = List.sort compare in
  sort certain = sort dl_true
  && sort (List.filter (fun t -> not (List.mem t certain)) possible) = sort dl_undef

let test_p61_win () =
  let program, edb, tr, sol =
    run_p61 "move(a,b). move(b,a). move(b,c). win(X) :- move(X,Y), not win(Y)."
  in
  Alcotest.(check bool) "win agrees" true (agree_on program edb tr sol "win")

let test_p61_tc () =
  let program, edb, tr, sol =
    run_p61 "e(1,2). e(2,3). e(3,1). t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z)."
  in
  Alcotest.(check bool) "t agrees" true (agree_on program edb tr sol "t")

let test_p61_interpreted () =
  let program, edb, tr, sol =
    run_p61 "d(1). d(2). shifted(Y) :- d(X), Y = add(X, 10)."
  in
  Alcotest.(check bool) "shifted agrees" true (agree_on program edb tr sol "shifted")

let test_p61_constants_in_rules () =
  let program, edb, tr, sol =
    run_p61 "e(1,2). e(2,3). from_two(Y) :- e(2, Y)."
  in
  Alcotest.(check bool) "constant selection" true
    (agree_on program edb tr sol "from_two")

let test_p61_constructor_terms () =
  let program, edb, tr, sol =
    run_p61 "num(s(s(zero))). pred(X) :- num(s(X))."
  in
  Alcotest.(check bool) "destructuring" true (agree_on program edb tr sol "pred")

let test_p61_neq () =
  let program, edb, tr, sol =
    run_p61 "e(1,1). e(1,2). diffp(X,Y) :- e(X,Y), X != Y."
  in
  Alcotest.(check bool) "neq" true (agree_on program edb tr sol "diffp")

let test_p61_edb_and_idb_same_pred () =
  (* A predicate with both facts and rules. *)
  let program, edb, tr, sol =
    run_p61 "t(0, 99). e(1,2). t(X,Y) :- e(X,Y)."
  in
  Alcotest.(check bool) "mixed pred" true (agree_on program edb tr sol "t")

let test_p61_consecutive_negatives () =
  (* Regression: two negative literals in one body used to compile as
     nested diffs, so the second literal's certain matches were judged
     against the already-diffed environment — whose certain bound an
     *unknown* first literal empties. Here r(a,c) is certainly true,
     which must make q(c) certainly false and hence p(a) certainly
     true; the nested form left both unknown forever. *)
  let program, edb, tr, sol =
    run_p61
      "e(c,a). p(X) :- e(Y,X), not q(Y). q(X) :- e(X,Y), not p(Y), not \
       r(Y,X). r(X,Y) :- e(Y,X), not p(Y)."
  in
  List.iter
    (fun pred ->
      Alcotest.(check bool) (pred ^ " agrees") true
        (agree_on program edb tr sol pred))
    [ "p"; "q"; "r" ]

let test_p61_unsafe_rejected () =
  let program, edb = Datalog.Parser.parse_exn "p(X) :- not q(X)." in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Datalog_to_alg.translate program edb);
       false
     with Datalog_to_alg.Untranslatable _ -> true)

(* --- Thm 3.5: IFP elimination --- *)

let test_t35_tc () =
  let db =
    Algebra.Db.of_list
      [ ("edge", [ Value.pair (vi 1) (vi 2); Value.pair (vi 2) (vi 3) ]) ]
  in
  let q =
    Algebra.Expr.(ifp "x" (union (rel "edge") (compose (rel "edge") (rel "x"))))
  in
  let direct = Algebra.Eval.eval no_defs db q in
  let elim = Ifp_elim.eliminate no_defs db q in
  Alcotest.(check bool) "no IFP left" true
    (not (Ifp_elim.defs_use_ifp elim.Ifp_elim.defs));
  let v = Ifp_elim.query_value elim in
  Alcotest.(check bool) "value preserved" true
    (Value.equal v.Algebra.Rec_eval.low direct
    && Value.equal v.Algebra.Rec_eval.high direct)

let test_t35_nonmonotone () =
  (* The key case: non-positive IFP, where the naive translation under
     valid semantics fails and the full pipeline is required. *)
  let q = Algebra.Expr.(ifp "x" (diff (lit [ vs "a"; vs "b" ]) (rel "x"))) in
  let direct = Algebra.Eval.eval no_defs Algebra.Db.empty q in
  let elim = Ifp_elim.eliminate no_defs Algebra.Db.empty q in
  let v = Ifp_elim.query_value elim in
  Alcotest.(check bool) "value preserved" true
    (Value.equal v.Algebra.Rec_eval.low direct
    && Value.equal v.Algebra.Rec_eval.high direct)

(* --- Prop 4.2: d.i. -> safe --- *)

let test_p42_guards_unrestricted () =
  let program, edb = Datalog.Parser.parse_exn "e(1). p(X) :- not q(X). q(X) :- e(X)." in
  Alcotest.(check bool) "unsafe before" false (Datalog.Safety.is_safe program);
  let program', edb' = Di_to_safe.make_safe program edb in
  Alcotest.(check bool) "safe after" true (Datalog.Safety.is_safe program');
  (* Over the active domain the two agree (here the query is d.i. once
     restricted to the database constants). *)
  let interp = Datalog.Run.valid program' edb' in
  Alcotest.check check_tvl "p(1) false (q(1) holds)" Tvl.False
    (Datalog.Interp.holds interp "p" [ vi 1 ])

let test_p42_preserves_safe_program_results () =
  let program, edb =
    Datalog.Parser.parse_exn "move(a,b). win(X) :- move(X,Y), not win(Y)."
  in
  let program', edb' = Di_to_safe.make_safe program edb in
  let before = Datalog.Run.valid program edb in
  let after = Datalog.Run.valid program' edb' in
  List.iter
    (fun args ->
      Alcotest.check check_tvl "same answer"
        (Datalog.Interp.holds before "win" args)
        (Datalog.Interp.holds after "win" args))
    [ [ vs "a" ]; [ vs "b" ] ]

let test_p42_domain_closure () =
  let program, edb = Datalog.Parser.parse_exn "e(1). p(Y) :- e(X), Y = add(X, 1)." in
  let dom = Di_to_safe.active_domain ~depth:2 program edb in
  Alcotest.(check bool) "1 in domain" true (List.exists (Value.equal (vi 1)) dom);
  Alcotest.(check bool) "2 in domain (closure)" true
    (List.exists (Value.equal (vi 2)) dom)

(* A constant with no concrete syntax is refused by name: printing the
   constant id as is would read back as the identity function. *)
let test_p61_reserved_constant_refused () =
  let _, _, tr, _ = run_p61 "e(a, b). p(X) :- e(X, Y), Y = id." in
  let body = (List.hd (Algebra.Defs.defs tr.Datalog_to_alg.defs)).Algebra.Defs.body in
  match Algebra.Expr.to_string body with
  | s -> Alcotest.failf "printed %s" s
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("names id: " ^ msg) true
      (String.starts_with ~prefix:{|"id"|} msg)

(* --- Thm 6.2 round trips on random instances --- *)

(* The translation printed as one [.alg] program (database, then
   definitions), parsed back and solved over the empty database, gives
   every constant the bounds it has in [sol]. *)
let printed_agrees tr sol =
  let text =
    Fmt.str "%a@.%a@." Algebra.Db.pp tr.Datalog_to_alg.db Algebra.Defs.pp
      tr.Datalog_to_alg.defs
  in
  match Algebra.Parser.parse_program text with
  | Error msg -> QCheck.Test.fail_reportf "%s in:@.%s" msg text
  | Ok p ->
    let sol' = Algebra.Rec_eval.solve p.Algebra.Parser.defs Algebra.Db.empty in
    List.for_all
      (fun name ->
        vset_equal (Algebra.Rec_eval.constant sol name)
          (Algebra.Rec_eval.constant sol' name))
      (Algebra.Defs.constant_names tr.Datalog_to_alg.defs)

let prop_t62_roundtrip_win =
  QCheck.Test.make ~name:"Thm 6.2: win round trip on random graphs" ~count:60
    Tgen.graph_arb (fun edges ->
      let program, _ =
        Datalog.Parser.parse_exn "win(X) :- move(X,Y), not win(Y)."
      in
      let edb = Tgen.move_edb edges in
      let tr = Datalog_to_alg.translate program edb in
      let sol = Algebra.Rec_eval.solve tr.Datalog_to_alg.defs tr.Datalog_to_alg.db in
      agree_on program edb tr sol "win" && printed_agrees tr sol)

let prop_t62_roundtrip_random_programs =
  QCheck.Test.make ~name:"Thm 6.2: random safe programs -> algebra= agree" ~count:60
    Tgen.rand_instance_arb (fun (program, edges) ->
      let edb = Tgen.e_edb edges in
      let tr = Datalog_to_alg.translate program edb in
      let sol = Algebra.Rec_eval.solve tr.Datalog_to_alg.defs tr.Datalog_to_alg.db in
      List.for_all
        (fun pred -> agree_on program edb tr sol pred)
        (Datalog.Program.idb_preds program)
      && printed_agrees tr sol)

let prop_p54_roundtrip_back =
  QCheck.Test.make ~name:"Prop 5.4: algebra= -> datalog agree on random graphs"
    ~count:40 Tgen.graph_arb (fun edges ->
      let db = move_db edges in
      let direct, via = both_ways win_defs db (Algebra.Expr.rel "win") in
      vset_equal direct via)

let prop_t35_random_graphs =
  QCheck.Test.make ~name:"Thm 3.5: IFP elimination on random graphs" ~count:15
    (QCheck.make
       ~print:(fun edges ->
         String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) edges))
       (Tgen.graph_gen ~max_nodes:4 ~max_edges:5 ()))
    (fun edges ->
      let db =
        Algebra.Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let q =
        Algebra.Expr.(ifp "x" (union (rel "edge") (compose (rel "edge") (rel "x"))))
      in
      let direct = Algebra.Eval.eval no_defs db q in
      let elim = Ifp_elim.eliminate no_defs db q in
      let v = Ifp_elim.query_value elim in
      Value.equal v.Algebra.Rec_eval.low direct
      && Value.equal v.Algebra.Rec_eval.high direct)

let suite =
  [
    Alcotest.test_case "P5.4 win cyclic" `Quick test_p54_win_cyclic;
    Alcotest.test_case "P5.4 non-recursive ops" `Quick test_p54_nonrecursive_ops;
    Alcotest.test_case "P5.4 product" `Quick test_p54_product;
    Alcotest.test_case "P5.4 S={a}-S" `Quick test_p54_s_minus_s;
    Alcotest.test_case "P5.1 IFP inflationary" `Quick test_p51_ifp_inflationary;
    Alcotest.test_case "P5.1/Example 4 valid differs" `Quick test_p51_valid_differs_example4;
    Alcotest.test_case "P5.2 Example 4 recovered" `Quick test_p52_example4;
    Alcotest.test_case "P5.2 general program" `Quick test_p52_general_program;
    Alcotest.test_case "P5.2 staged program total" `Quick test_p52_transform_is_stratified_by_stage;
    Alcotest.test_case "P6.1 win" `Quick test_p61_win;
    Alcotest.test_case "P6.1 transitive closure" `Quick test_p61_tc;
    Alcotest.test_case "P6.1 interpreted functions" `Quick test_p61_interpreted;
    Alcotest.test_case "P6.1 constants in rules" `Quick test_p61_constants_in_rules;
    Alcotest.test_case "P6.1 constructor terms" `Quick test_p61_constructor_terms;
    Alcotest.test_case "P6.1 disequality" `Quick test_p61_neq;
    Alcotest.test_case "P6.1 EDB+IDB predicate" `Quick test_p61_edb_and_idb_same_pred;
    Alcotest.test_case "P6.1 consecutive negatives" `Quick
      test_p61_consecutive_negatives;
    Alcotest.test_case "P6.1 unsafe rejected" `Quick test_p61_unsafe_rejected;
    Alcotest.test_case "P6.1 reserved-word constant refused" `Quick
      test_p61_reserved_constant_refused;
    Alcotest.test_case "T3.5 transitive closure" `Quick test_t35_tc;
    Alcotest.test_case "T3.5 non-monotone IFP" `Quick test_t35_nonmonotone;
    Alcotest.test_case "P4.2 guards unrestricted" `Quick test_p42_guards_unrestricted;
    Alcotest.test_case "P4.2 preserves safe results" `Quick test_p42_preserves_safe_program_results;
    Alcotest.test_case "P4.2 domain closure" `Quick test_p42_domain_closure;
    QCheck_alcotest.to_alcotest prop_t62_roundtrip_win;
    QCheck_alcotest.to_alcotest prop_t62_roundtrip_random_programs;
    QCheck_alcotest.to_alcotest prop_p54_roundtrip_back;
    QCheck_alcotest.to_alcotest prop_t35_random_graphs;
  ]

(* --- Prop 3.2 witness and d.i. checking --- *)

let test_witness_construction () =
  let defs = Algebra.Defs.make [ Algebra.Defs.constant "s" (Algebra.Expr.lit [ vi 1; vi 2 ]) ] in
  Alcotest.(check bool) "2 in s -> no initial valid model" true
    (Witness.element_in_set defs ~set:"s" ~elem:(vi 2) Algebra.Db.empty = `In);
  Alcotest.(check bool) "7 not in s -> initial valid model" true
    (Witness.element_in_set defs ~set:"s" ~elem:(vi 7) Algebra.Db.empty = `Out)

let test_witness_undefined_source () =
  (* S itself undefined on the probed element. *)
  let defs =
    Algebra.Defs.make
      [ Algebra.Defs.constant "s" Algebra.Expr.(diff (lit [ vs "a" ]) (rel "s")) ]
  in
  Alcotest.(check bool) "undefined propagates" true
    (Witness.element_in_set defs ~set:"s" ~elem:(vs "a") Algebra.Db.empty = `Undefined)

let test_di_check_dependent () =
  let program, edb = Datalog.Parser.parse_exn "r(1). q(X) :- not r(X)." in
  (match Di_check.check program edb with
  | `Dependent pred -> Alcotest.(check string) "q flagged" "q" pred
  | `Apparently_independent -> Alcotest.fail "should be dependent")

let test_di_check_independent () =
  let program, edb =
    Datalog.Parser.parse_exn "move(a,b). win(X) :- move(X,Y), not win(Y)."
  in
  Alcotest.(check bool) "win is d.i." true
    (Di_check.check program edb = `Apparently_independent)

let prop_p54_random_expressions =
  QCheck.Test.make ~name:"Prop 5.4 on random algebra expressions" ~count:150
    Tgen.expr_arb (fun e ->
      let direct, via = both_ways no_defs Tgen.algebra_db e in
      vset_equal direct via)

let suite =
  suite
  @ [
      Alcotest.test_case "P3.2 witness construction" `Quick test_witness_construction;
      Alcotest.test_case "P3.2 witness undefined source" `Quick test_witness_undefined_source;
      Alcotest.test_case "d.i. check: dependent" `Quick test_di_check_dependent;
      Alcotest.test_case "d.i. check: independent" `Quick test_di_check_independent;
      QCheck_alcotest.to_alcotest prop_p54_random_expressions;
    ]

(* Regression: a rule joining an uncertain positive atom must still
   subtract its negative literals exactly. The compositional evaluator
   only matches the fact-level valid semantics if subtraction happens
   while the environment expression is exact; this program caught the
   original, less precise literal ordering. *)
let test_p61_uncertain_positive_with_negation () =
  let program, edb, tr, sol =
    run_p61
      "e(a,a). e(b,a). e(b,b). \
       r(X, Y) :- e(Y, X), not r(Y, X). \
       p(X) :- e(X, Y), q(Y), not r(Y, X). \
       r(X, Y) :- e(X, Y). \
       q(X) :- e(X, Y), not p(Y)."
  in
  List.iter
    (fun pred ->
      Alcotest.(check bool) (pred ^ " agrees") true (agree_on program edb tr sol pred))
    [ "p"; "q"; "r" ]

let suite =
  suite
  @ [
      Alcotest.test_case "P6.1 uncertain positive + negation (regression)" `Quick
        test_p61_uncertain_positive_with_negation;
    ]

let prop_safe_programs_domain_independent =
  (* Safety is the syntactic guarantee of domain independence (Section
     4); the operational refuter must never flag a safe program. *)
  QCheck.Test.make ~name:"safe random programs pass the d.i. refuter" ~count:40
    Tgen.rand_instance_arb (fun (program, edges) ->
      let edb = Tgen.e_edb edges in
      QCheck.assume (Datalog.Safety.is_safe program);
      Di_check.check program edb = `Apparently_independent)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_safe_programs_domain_independent ]

(* --- Theorem 4.3, constructive direction: stratified -> positive IFP --- *)

let test_t43_construction () =
  let program, edb =
    Datalog.Parser.parse_exn
      "e(1,2). e(2,3). e(3,4). d(1). d(2). d(3). d(4). \
       t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). \
       unreachable(X) :- d(X), not t(1, X)."
  in
  match Stratified_to_ifp.translate program edb with
  | Error m -> Alcotest.fail m
  | Ok tr ->
    (* The image lies in the positive IFP-algebra... *)
    List.iter
      (fun (d : Algebra.Defs.def) ->
        Alcotest.(check bool)
          (d.Algebra.Defs.name ^ " positive")
          true
          (Algebra.Positivity.positive_ifp d.Algebra.Defs.body))
      (Algebra.Defs.defs tr.Stratified_to_ifp.defs);
    (* ... and computes the stratified model. *)
    let strat =
      match Datalog.Run.stratified program edb with
      | Ok db -> db
      | Error e -> Alcotest.fail e
    in
    List.iter
      (fun pred ->
        let via_alg = List.sort compare (Stratified_to_ifp.eval_pred tr pred) in
        let via_dl = List.sort compare (Datalog.Edb.tuples strat pred) in
        Alcotest.(check bool) (pred ^ " equal") true (via_alg = via_dl))
      [ "t"; "unreachable" ]

let test_t43_rejects_nonstratified () =
  let program, edb =
    Datalog.Parser.parse_exn "win(X) :- move(X,Y), not win(Y)."
  in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Stratified_to_ifp.translate program edb))

let test_t43_mutual_recursion_in_stratum () =
  (* Two mutually recursive predicates share one simultaneous fixpoint. *)
  let program, edb =
    Datalog.Parser.parse_exn
      "num(0). num(1). num(2). num(3). num(4). \
       ev(0). ev(Y) :- od(X), Y = add(X, 1), num(Y). \
       od(Y) :- ev(X), Y = add(X, 1), num(Y)."
  in
  match Stratified_to_ifp.translate program edb with
  | Error m -> Alcotest.fail m
  | Ok tr ->
    let evs = List.sort compare (Stratified_to_ifp.eval_pred tr "ev") in
    Alcotest.(check bool) "evens" true
      (evs = [ [ vi 0 ]; [ vi 2 ]; [ vi 4 ] ])

let prop_t43_random_stratified =
  QCheck.Test.make ~name:"Thm 4.3: stratified -> positive IFP-algebra on random programs"
    ~count:60 Tgen.rand_instance_arb (fun (program, edges) ->
      QCheck.assume (Datalog.Stratify.is_stratified program);
      let edb = Tgen.e_edb edges in
      match Stratified_to_ifp.translate program edb, Datalog.Run.stratified program edb with
      | Ok tr, Ok strat ->
        List.for_all
          (fun pred ->
            List.sort compare (Stratified_to_ifp.eval_pred tr pred)
            = List.sort compare (Datalog.Edb.tuples strat pred))
          (Datalog.Program.idb_preds program)
      | Error _, _ | _, Error _ -> QCheck.assume_fail ())

let suite =
  suite
  @ [
      Alcotest.test_case "T4.3 construction" `Quick test_t43_construction;
      Alcotest.test_case "T4.3 rejects non-stratified" `Quick test_t43_rejects_nonstratified;
      Alcotest.test_case "T4.3 mutual recursion" `Quick test_t43_mutual_recursion_in_stratum;
      QCheck_alcotest.to_alcotest prop_t43_random_stratified;
    ]

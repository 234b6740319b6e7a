(* Algebra tests: element functions, selection tests, the two-valued
   evaluator with IFP, the three-valued recursive evaluator, and the
   polarity analysis — every running example of Section 3. *)

open Recalg
open Algebra

let check_value = Alcotest.testable Value.pp Value.equal
let check_tvl = Alcotest.testable Tvl.pp Tvl.equal
let vi = Value.int
let vs = Value.sym
let no_defs = Defs.make []

let eval_closed e = Eval.eval no_defs Db.empty e
let eval_db db e = Eval.eval no_defs db e

(* Relational composition of binary relations (as sets of pairs). *)
let compose a b =
  Expr.(
    map
      (Efun.Tuple_of
         [ Efun.Compose (Efun.Proj 1, Efun.Proj 1);
           Efun.Compose (Efun.Proj 2, Efun.Proj 2) ])
      (select
         (Pred.Eq
            ( Efun.Compose (Efun.Proj 2, Efun.Proj 1),
              Efun.Compose (Efun.Proj 1, Efun.Proj 2) ))
         (product a b)))

let win_body =
  Expr.(pi 1 (diff (rel "move") (product (pi 1 (rel "move")) (rel "win"))))

(* --- Efun / Pred --- *)

let test_efun_basic () =
  let b = Builtins.default in
  let t = Value.tuple [ vi 1; vi 2 ] in
  Alcotest.(check bool) "proj" true (Efun.apply b (Efun.Proj 2) t = Some (vi 2));
  Alcotest.(check bool) "proj oob" true (Efun.apply b (Efun.Proj 3) t = None);
  Alcotest.(check bool) "add_const" true
    (Efun.apply b (Efun.add_const 2) (vi 3) = Some (vi 5));
  Alcotest.(check bool) "compose" true
    (Efun.apply b (Efun.Compose (Efun.add_const 1, Efun.Proj 1)) t = Some (vi 2));
  Alcotest.(check bool) "tuple_of" true
    (Efun.apply b (Efun.Tuple_of [ Efun.Proj 2; Efun.Proj 1 ]) t
    = Some (Value.tuple [ vi 2; vi 1 ]))

let test_efun_destructor () =
  let b = Builtins.default in
  let v = Value.cstr "s" [ vi 7 ] in
  Alcotest.(check bool) "arg" true (Efun.apply b (Efun.Arg ("s", 1)) v = Some (vi 7));
  Alcotest.(check bool) "arg wrong cstr" true
    (Efun.apply b (Efun.Arg ("z", 1)) v = None)

let test_pred_eval () =
  let b = Builtins.default in
  Alcotest.(check bool) "eq_const" true
    (Pred.eval b (Pred.eq_const (vi 3)) (vi 3) = Some true);
  Alcotest.(check bool) "lt" true
    (Pred.eval b (Pred.Lt (Efun.Id, Efun.Const (vi 5))) (vi 3) = Some true);
  Alcotest.(check bool) "lt undefined on sym" true
    (Pred.eval b (Pred.Lt (Efun.Id, Efun.Const (vi 5))) (vs "a") = None);
  Alcotest.(check bool) "not" true
    (Pred.eval b (Pred.Not Pred.True) (vi 0) = Some false);
  Alcotest.(check bool) "is_cstr" true
    (Pred.eval b (Pred.Is_cstr ("s", 1, Efun.Id)) (Value.cstr "s" [ vi 0 ]) = Some true)

(* --- two-valued evaluation --- *)

let test_eval_ops () =
  let e =
    Expr.(union (lit [ vi 1; vi 2 ]) (diff (lit [ vi 2; vi 3 ]) (lit [ vi 3 ])))
  in
  Alcotest.check check_value "union/diff" (Value.set [ vi 1; vi 2 ]) (eval_closed e)

let test_eval_select_map () =
  let e =
    Expr.(
      map (Efun.add_const 10)
        (select (Pred.Lt (Efun.Id, Efun.Const (vi 3))) (lit [ vi 1; vi 2; vi 5 ])))
  in
  Alcotest.check check_value "select+map" (Value.set [ vi 11; vi 12 ]) (eval_closed e)

let test_eval_map_drops_undefined () =
  (* MAP over a partial function drops elements outside its domain. *)
  let e = Expr.(map (Efun.add_const 1) (lit [ vi 1; vs "a" ])) in
  Alcotest.check check_value "dropped" (Value.set [ vi 2 ]) (eval_closed e)

let test_eval_inter_xor () =
  (* Example 3's derived operators. *)
  let a = Expr.lit [ vi 1; vi 2 ]
  and b = Expr.lit [ vi 2; vi 3 ] in
  Alcotest.check check_value "inter" (Value.set [ vi 2 ]) (eval_closed (Expr.inter a b));
  Alcotest.check check_value "xor" (Value.set [ vi 1; vi 3 ])
    (eval_closed (Expr.xor a b))

let test_eval_defined_ops () =
  (* Defined operations are inlined: intersect(x, y) = x - (x - y). *)
  let defs =
    Defs.make
      [
        Defs.define "intersect" [ "x"; "y" ]
          Expr.(diff (Param "x") (diff (Param "x") (Param "y")));
      ]
  in
  let e = Expr.call "intersect" [ Expr.lit [ vi 1; vi 2 ]; Expr.lit [ vi 2 ] ] in
  Alcotest.check check_value "defined op" (Value.set [ vi 2 ])
    (Eval.eval defs Db.empty e)

let test_eval_ifp_tc () =
  let db =
    Db.of_list
      [ ("edge", [ Value.pair (vi 1) (vi 2); Value.pair (vi 2) (vi 3) ]) ]
  in
  let tc = Expr.(ifp "x" (union (rel "edge") (compose (rel "edge") (rel "x")))) in
  Alcotest.check check_value "transitive closure"
    (Value.set
       [ Value.pair (vi 1) (vi 2); Value.pair (vi 2) (vi 3); Value.pair (vi 1) (vi 3) ])
    (eval_db db tc)

let test_eval_ifp_nonmonotone () =
  (* IFP_{x. {a} - x} = {a} (Section 3.2): inflationary, not alternating. *)
  let e = Expr.(ifp "x" (diff (lit [ vs "a" ]) (rel "x"))) in
  Alcotest.check check_value "inflationary" (Value.set [ vs "a" ]) (eval_closed e)

let test_eval_ifp_diverges () =
  let e = Expr.(ifp "x" (union (lit [ vi 0 ]) (map (Efun.add_const 1) (rel "x")))) in
  Alcotest.(check bool) "diverges with fuel" true
    (try
       ignore (Eval.eval ~fuel:(Limits.of_int 100) no_defs Db.empty e);
       false
     with Limits.Diverged _ -> true)

let test_eval_recursive_rejected () =
  let defs = Defs.make [ Defs.constant "s" Expr.(diff (lit [ vs "a" ]) (rel "s")) ] in
  Alcotest.(check bool) "recursion rejected by 2-valued eval" true
    (try
       ignore (Eval.eval defs Db.empty (Expr.rel "s"));
       false
     with Eval.Recursive_definition _ -> true)

let test_eval_unknown_rel () =
  Alcotest.(check bool) "unknown relation" true
    (try
       ignore (eval_closed (Expr.rel "nope"));
       false
     with Eval.Undefined_relation _ -> true)

(* --- Defs validation --- *)

let test_defs_validate () =
  let good = Defs.make [ Defs.define "f" [ "x" ] (Expr.Param "x") ] in
  Alcotest.(check bool) "good" true (Result.is_ok (Defs.validate good));
  let bad_param = Defs.make [ Defs.define "f" [ "x" ] (Expr.Param "y") ] in
  Alcotest.(check bool) "undeclared param" true (Result.is_error (Defs.validate bad_param));
  let bad_arity =
    Defs.make
      [
        Defs.define "f" [ "x" ] (Expr.Param "x");
        Defs.constant "g" (Expr.call "f" []);
      ]
  in
  Alcotest.(check bool) "arity" true (Result.is_error (Defs.validate bad_arity));
  let rec_param =
    Defs.make [ Defs.define "f" [ "x" ] (Expr.call "f" [ Expr.Param "x" ]) ]
  in
  Alcotest.(check bool) "recursive parameterised rejected" true
    (Result.is_error (Defs.validate rec_param))

(* --- three-valued recursive evaluation --- *)

let example name =
  let file = Filename.concat "examples/programs" (name ^ ".alg") in
  (* dune runtest runs in _build/default/test, dune exec at the root. *)
  let path = if Sys.file_exists file then file else Filename.concat ".." file in
  In_channel.with_open_bin path In_channel.input_all

let test_rec_s_minus_s () =
  (* S = {a} - S: membership of a undefined; no initial valid model. *)
  let defs = Defs.make [ Defs.constant "s" Expr.(diff (lit [ vs "a" ]) (rel "s")) ] in
  let sol = Rec_eval.solve defs Db.empty in
  let s = Rec_eval.constant sol "s" in
  Alcotest.check check_tvl "a undef" Tvl.Undef (Rec_eval.member s (vs "a"));
  Alcotest.(check bool) "not well defined" false
    (Rec_eval.well_defined defs Db.empty);
  (* The same program from examples/programs: an undefined constant's
     member probes both bounds. *)
  let p = Result.get_ok (Parser.parse_program (example "undefined")) in
  let s = Rec_eval.constant (Rec_eval.solve p.Parser.defs Db.empty) "s" in
  Alcotest.check check_tvl "undefined.alg: a undef" Tvl.Undef
    (Rec_eval.member s (vs "a"));
  Alcotest.check check_tvl "undefined.alg: b out" Tvl.False
    (Rec_eval.member s (vs "b"));
  (* A defined constant's one set answers both ways. *)
  let big = Rec_eval.exact (Value.set (List.init 40 vi)) in
  Alcotest.check check_tvl "defined: in" Tvl.True (Rec_eval.member big (vi 7));
  Alcotest.check check_tvl "defined: out" Tvl.False (Rec_eval.member big (vi 40))

let test_rec_vs_ifp_contrast () =
  (* The same body under IFP gives {a} — the Section 3.2 contrast between
     the inflationary operator and the 'real' fixed point. *)
  let body x = Expr.(diff (lit [ vs "a" ]) x) in
  let ifp_value = eval_closed (Expr.ifp "x" (body (Expr.rel "x"))) in
  Alcotest.check check_value "IFP says {a}" (Value.set [ vs "a" ]) ifp_value;
  let defs = Defs.make [ Defs.constant "s" (body (Expr.rel "s")) ] in
  let s = Rec_eval.constant (Rec_eval.solve defs Db.empty) "s" in
  Alcotest.check check_tvl "equation says undef" Tvl.Undef (Rec_eval.member s (vs "a"))

let test_rec_win_acyclic_defined () =
  (* Acyclic MOVE: the valid interpretation is two-valued (Example 3). *)
  let db =
    Db.of_list [ ("move", [ Value.pair (vs "a") (vs "b"); Value.pair (vs "b") (vs "c") ]) ]
  in
  let defs = Defs.make [ Defs.constant "win" win_body ] in
  Alcotest.(check bool) "well defined" true (Rec_eval.well_defined defs db);
  let win = Rec_eval.constant (Rec_eval.solve defs db) "win" in
  Alcotest.check check_value "winners" (Value.set [ vs "b" ]) win.Rec_eval.low

let test_rec_win_cyclic_undefined () =
  let db = Db.of_list [ ("move", [ Value.pair (vs "a") (vs "a") ]) ] in
  let defs = Defs.make [ Defs.constant "win" win_body ] in
  Alcotest.(check bool) "not well defined" false (Rec_eval.well_defined defs db);
  let win = Rec_eval.constant (Rec_eval.solve defs db) "win" in
  Alcotest.check check_tvl "a undef" Tvl.Undef (Rec_eval.member win (vs "a"))

let test_rec_even_window () =
  let defs =
    Defs.make
      [
        Defs.constant "even"
          Expr.(union (lit [ vi 0 ]) (map (Efun.add_const 2) (rel "even")));
      ]
  in
  let window = Value.set (List.init 21 vi) in
  let even = Rec_eval.constant (Rec_eval.solve ~window defs Db.empty) "even" in
  Alcotest.check check_tvl "0 in" Tvl.True (Rec_eval.member even (vi 0));
  Alcotest.check check_tvl "14 in" Tvl.True (Rec_eval.member even (vi 14));
  Alcotest.check check_tvl "13 out" Tvl.False (Rec_eval.member even (vi 13));
  Alcotest.(check bool) "defined on window" true (Rec_eval.is_defined even)

let test_rec_unbounded_diverges () =
  let defs =
    Defs.make
      [
        Defs.constant "even"
          Expr.(union (lit [ vi 0 ]) (map (Efun.add_const 2) (rel "even")));
      ]
  in
  Alcotest.(check bool) "diverges without window" true
    (try
       ignore (Rec_eval.solve ~fuel:(Limits.of_int 50) defs Db.empty);
       false
     with Limits.Diverged _ -> true)

let test_rec_mutual_recursion () =
  (* Mutually recursive constants over a shared database. *)
  let db = Db.of_list [ ("d", [ vi 1; vi 2; vi 3 ]) ] in
  let defs =
    Defs.make
      [
        Defs.constant "odd_idx" Expr.(diff (rel "d") (rel "even_idx"));
        Defs.constant "even_idx" Expr.(diff (rel "d") (rel "odd_idx"));
      ]
  in
  let sol = Rec_eval.solve defs db in
  let odd = Rec_eval.constant sol "odd_idx" in
  (* Symmetric mutual subtraction: everything undefined. *)
  Alcotest.check check_tvl "undefined by symmetry" Tvl.Undef
    (Rec_eval.member odd (vi 1))

let test_rec_prop34_monotone_coincide () =
  (* Proposition 3.4: monotone exp => S = exp(S) and IFP_exp agree. *)
  let db =
    Db.of_list
      [ ("edge", [ Value.pair (vi 1) (vi 2); Value.pair (vi 2) (vi 3);
                   Value.pair (vi 3) (vi 4) ]) ]
  in
  let body x = Expr.(union (rel "edge") (compose (rel "edge") x)) in
  let defs = Defs.make [ Defs.constant "tc" (body (Expr.rel "tc")) ] in
  Alcotest.(check bool) "syntactically monotone" true
    (Positivity.monotone_syntactic defs "tc");
  let s = Rec_eval.constant (Rec_eval.solve defs db) "tc" in
  let ifp = eval_db db (Expr.ifp "x" (body (Expr.rel "x"))) in
  Alcotest.(check bool) "S well-defined" true (Rec_eval.is_defined s);
  Alcotest.check check_value "S = IFP" ifp s.Rec_eval.low

let test_rec_ifp_inside_recursion () =
  (* IFP-algebra=: an IFP inside a recursive definition. *)
  let db = Db.of_list [ ("edge", [ Value.pair (vi 1) (vi 2) ]) ] in
  let defs =
    Defs.make
      [
        Defs.constant "c"
          Expr.(
            union
              (ifp "x" (union (rel "edge") (compose (rel "edge") (rel "x"))))
              (rel "c"));
      ]
  in
  let c = Rec_eval.constant (Rec_eval.solve defs db) "c" in
  Alcotest.check check_value "tc through ifp" (Value.set [ Value.pair (vi 1) (vi 2) ])
    c.Rec_eval.low

(* --- positivity --- *)

let test_positivity_polarity () =
  let e = Expr.(diff (rel "a") (union (rel "b") (diff (rel "c") (rel "d")))) in
  Alcotest.(check (list string)) "negative" [ "b"; "c" ] (Positivity.negative_names e);
  Alcotest.(check bool) "d positive (double negation)" true
    (List.mem "d" (Positivity.positive_names e))

let test_positivity_win_negative () =
  Alcotest.(check bool) "win occurs negatively" true
    (Positivity.occurs_negatively win_body "win")

let test_positive_ifp () =
  let pos = Expr.(ifp "x" (union (rel "e") (rel "x"))) in
  let neg = Expr.(ifp "x" (diff (rel "e") (rel "x"))) in
  Alcotest.(check bool) "positive" true (Positivity.positive_ifp pos);
  Alcotest.(check bool) "negative" false (Positivity.positive_ifp neg)

(* --- properties --- *)

let prop_monotone_rec_equals_ifp =
  (* Proposition 3.4 over random graphs. *)
  QCheck.Test.make ~name:"Prop 3.4: monotone S=exp(S) equals IFP_exp" ~count:60
    Tgen.graph_arb (fun edges ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let body x = Expr.(union (rel "edge") (compose (rel "edge") x)) in
      let defs = Defs.make [ Defs.constant "tc" (body (Expr.rel "tc")) ] in
      let s = Rec_eval.constant (Rec_eval.solve defs db) "tc" in
      let ifp = Eval.eval no_defs db (Expr.ifp "x" (body (Expr.rel "x"))) in
      Rec_eval.is_defined s && Value.equal s.Rec_eval.low ifp)

let prop_select_splits =
  QCheck.Test.make ~name:"sigma_p(S) ∪ sigma_{not p}(S) = S for total p" ~count:200
    Tgen.small_set_arb (fun s ->
      let p = Pred.Lt (Efun.Id, Efun.Const (vi 3)) in
      let sel p = eval_closed (Expr.select p (Expr.Lit s)) in
      Value.equal (Value.union (sel p) (sel (Pred.Not p))) s)

let prop_map_union_commute =
  QCheck.Test.make ~name:"MAP_f(a ∪ b) = MAP_f(a) ∪ MAP_f(b)" ~count:200
    QCheck.(pair Tgen.small_set_arb Tgen.small_set_arb)
    (fun (a, b) ->
      let f = Efun.add_const 3 in
      let m s = eval_closed (Expr.map f (Expr.Lit s)) in
      Value.equal
        (m (Value.union a b))
        (Value.union (m a) (m b)))

let suite =
  [
    Alcotest.test_case "efun basic" `Quick test_efun_basic;
    Alcotest.test_case "efun destructor" `Quick test_efun_destructor;
    Alcotest.test_case "pred eval" `Quick test_pred_eval;
    Alcotest.test_case "eval ops" `Quick test_eval_ops;
    Alcotest.test_case "eval select/map" `Quick test_eval_select_map;
    Alcotest.test_case "map drops undefined" `Quick test_eval_map_drops_undefined;
    Alcotest.test_case "inter/xor (Example 3)" `Quick test_eval_inter_xor;
    Alcotest.test_case "defined ops inline" `Quick test_eval_defined_ops;
    Alcotest.test_case "IFP transitive closure" `Quick test_eval_ifp_tc;
    Alcotest.test_case "IFP non-monotone body" `Quick test_eval_ifp_nonmonotone;
    Alcotest.test_case "IFP diverges with fuel" `Quick test_eval_ifp_diverges;
    Alcotest.test_case "recursion rejected (2-valued)" `Quick test_eval_recursive_rejected;
    Alcotest.test_case "unknown relation" `Quick test_eval_unknown_rel;
    Alcotest.test_case "defs validation" `Quick test_defs_validate;
    Alcotest.test_case "S = {a} - S undefined" `Quick test_rec_s_minus_s;
    Alcotest.test_case "equation vs IFP contrast" `Quick test_rec_vs_ifp_contrast;
    Alcotest.test_case "WIN acyclic defined" `Quick test_rec_win_acyclic_defined;
    Alcotest.test_case "WIN cyclic undefined" `Quick test_rec_win_cyclic_undefined;
    Alcotest.test_case "even set with window" `Quick test_rec_even_window;
    Alcotest.test_case "unbounded diverges" `Quick test_rec_unbounded_diverges;
    Alcotest.test_case "mutual recursion" `Quick test_rec_mutual_recursion;
    Alcotest.test_case "Prop 3.4 coincidence" `Quick test_rec_prop34_monotone_coincide;
    Alcotest.test_case "IFP inside recursion" `Quick test_rec_ifp_inside_recursion;
    Alcotest.test_case "polarity analysis" `Quick test_positivity_polarity;
    Alcotest.test_case "WIN body negative" `Quick test_positivity_win_negative;
    Alcotest.test_case "positive IFP check" `Quick test_positive_ifp;
    QCheck_alcotest.to_alcotest prop_monotone_rec_equals_ifp;
    QCheck_alcotest.to_alcotest prop_select_splits;
    QCheck_alcotest.to_alcotest prop_map_union_commute;
  ]

let prop_windowed_rec_eval_sound =
  (* Intersecting with a window that covers the whole relevant universe
     must not change answers inside it: windowed TC equals unwindowed. *)
  QCheck.Test.make ~name:"window covering the universe is sound" ~count:40
    Tgen.graph_arb (fun edges ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let body x = Expr.(union (rel "edge") (compose (rel "edge") x)) in
      let defs = Defs.make [ Defs.constant "tc" (body (Expr.rel "tc")) ] in
      let nodes = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
      let window =
        Value.set
          (List.concat_map
             (fun a -> List.map (fun b -> Value.pair (vs a) (vs b)) nodes)
             nodes)
      in
      let plain = Rec_eval.constant (Rec_eval.solve defs db) "tc" in
      let windowed = Rec_eval.constant (Rec_eval.solve ~window defs db) "tc" in
      Value.equal plain.Rec_eval.low windowed.Rec_eval.low
      && Value.equal plain.Rec_eval.high windowed.Rec_eval.high)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_windowed_rec_eval_sound ]

(* --- semi-naive delta evaluation (Delta / Positivity.delta_linear) --- *)

let test_delta_linearity () =
  let x = Expr.rel "x" in
  let lin = Expr.(union (rel "edge") (product x (rel "edge"))) in
  Alcotest.(check bool) "union/product linear" true
    (Positivity.delta_linear [ "x" ] lin);
  let neg = Expr.(diff (rel "edge") x) in
  Alcotest.(check bool) "diff-right not linear" false
    (Positivity.delta_linear [ "x" ] neg);
  Alcotest.(check bool) "diff-right has no linear occurrence" false
    (Positivity.has_linear_occurrence [ "x" ] neg);
  let mixed = Expr.(union (product x (rel "edge")) (diff (rel "edge") x)) in
  Alcotest.(check bool) "mixed body not fully linear" false
    (Positivity.delta_linear [ "x" ] mixed);
  Alcotest.(check bool) "mixed body still has a linear occurrence" true
    (Positivity.has_linear_occurrence [ "x" ] mixed);
  Alcotest.(check bool) "inter places x under diff-right" false
    (Positivity.delta_linear [ "x" ] Expr.(inter (rel "edge") x));
  (* Occurrences bound by an inner IFP over the same name don't count. *)
  Alcotest.(check bool) "shadowed occurrences ignored" true
    (Positivity.delta_linear [ "x" ] Expr.(ifp "x" (union x (rel "edge"))))

let test_seminaive_mixture_body () =
  (* A body mixing a delta-linear occurrence (through composition) with a
     fallback occurrence (under Diff's right argument): both strategies
     must agree, and the semi-naive run must take the derive path for the
     linear part while re-evaluating the Diff node in full. *)
  let db =
    Db.of_list
      [ ( "edge",
          [ Value.pair (vs "a") (vs "b");
            Value.pair (vs "b") (vs "c");
            Value.pair (vs "c") (vs "a") ] ) ]
  in
  let body x = Expr.(union (compose (rel "edge") x) (diff (rel "edge") x)) in
  let e = Expr.ifp "x" (body (Expr.rel "x")) in
  let naive = Eval.eval ~advice:(Advice.naive Advice.none) no_defs db e in
  let semi = Eval.eval no_defs db e in
  Alcotest.check check_value "mixture body agrees" naive semi

let prop_seminaive_ifp_equals_naive =
  (* The engine-equivalence property behind experiment E2: on random
     recursive bodies — including non-monotone ones and ones forcing the
     conservative fallback — semi-naive IFP iteration reaches exactly the
     same fixpoint as naive re-evaluation, spending the same fuel. *)
  QCheck.Test.make ~name:"semi-naive IFP = naive IFP" ~count:(Tgen.qcount 200)
    QCheck.(pair Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (body, edges) ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let e = Expr.ifp "x" body in
      let run advice =
        let fuel = Limits.of_int 400 in
        try Ok (Eval.eval ~fuel ~advice no_defs db e, Limits.remaining fuel)
        with Limits.Diverged _ -> Error `Diverged
      in
      match (run (Advice.naive Advice.none), run Advice.none) with
      | Ok (a, f1), Ok (b, f2) -> Value.equal a b && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

let prop_seminaive_rec_eval_equals_naive =
  (* Same equivalence for the three-valued alternating fixpoint: a pair
     of mutually recursive constants with random bodies must get
     byte-identical low and high bounds, and spend the same fuel, under
     both strategies. *)
  QCheck.Test.make ~name:"semi-naive rec_eval bounds = naive"
    ~count:(Tgen.qcount 100)
    QCheck.(triple Tgen.ifp_body_arb Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (b1, b2, edges) ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let subst to_ e =
        Expr.map_rels (fun n -> Expr.rel (if n = "x" then to_ else n)) e
      in
      let defs =
        Defs.make
          [ Defs.constant "c" (subst "d" b1); Defs.constant "d" (subst "c" b2) ]
      in
      let run advice =
        let fuel = Limits.of_int 5000 in
        try
          let sol = Rec_eval.solve ~fuel ~advice defs db in
          Ok
            ( Rec_eval.constant sol "c",
              Rec_eval.constant sol "d",
              Limits.remaining fuel )
        with Limits.Diverged _ -> Error `Diverged
      in
      match (run (Advice.naive Advice.none), run Advice.none) with
      | Ok (c1, d1, f1), Ok (c2, d2, f2) ->
        Value.equal c1.Rec_eval.low c2.Rec_eval.low
        && Value.equal c1.Rec_eval.high c2.Rec_eval.high
        && Value.equal d1.Rec_eval.low d2.Rec_eval.low
        && Value.equal d1.Rec_eval.high d2.Rec_eval.high
        && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

(* Pinned fuel and bounds of [Rec_eval.solve], under both strategies.
   The figures were taken from the engine before its phases evaluated
   only the bound they grow and accumulated through [Delta.Acc]; those
   changes must leave every round, and so the fuel, where it was. The
   hand-written program puts an [Ifp] inside a recursive body, under a
   difference's right side, which the random bodies of [Tgen] never
   produce: the nested loop must still iterate on both bounds. *)
let nested_ifp_program =
  "let e = {[1,2],[2,3],[3,1],[3,4],[4,5],[6,7],[7,6]};\n\
   let n = {1,2,3,4,5,6,7};\n\
   let w = (n - ifp v. map[pi1 . pi1](sel[pi2 . pi1 = pi2](e x (w + v))))\n\
  \  + map[pi2 . pi1](sel[pi1 . pi1 = pi2](e x w));\n"

let test_rec_eval_pinned_fuel () =
  let window = Value.set (List.init 21 vi) in
  let cases =
    [ ( "even", example "even", Some window, 50,
        [ ("evens", "{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}") ] );
      ("undefined", example "undefined", None, 4, [ ("s", "[certain {}, possible {a}]") ]);
      ( "triangle", example "triangle", None, 14,
        [ ("r", "{[1, 1], [2, 1], [3, 2], [4, 2], [5, 3], [6, 3], [7, 4], [8, 4]}");
          ("s", "{[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6], [7, 7], [8, 8]}");
          ("t", "{[1, 100], [2, 200]}");
          ( "q",
            "{[[[1, 1], [1, 1]], [1, 100]], [[[2, 1], [1, 1]], [1, 100]], \
             [[[3, 2], [2, 2]], [2, 200]], [[[4, 2], [2, 2]], [2, 200]]}" ) ] );
      ( "nested ifp", nested_ifp_program, None, 57,
        [ ("e", "{[1, 2], [2, 3], [3, 1], [3, 4], [4, 5], [6, 7], [7, 6]}");
          ("n", "{1, 2, 3, 4, 5, 6, 7}");
          ("w", "[certain {5}, possible {5, 6, 7}]") ] ) ]
  in
  List.iter
    (fun (label, text, window, spent, bounds) ->
      List.iter
        (fun (sname, advice) ->
          let label = label ^ " (" ^ sname ^ ")" in
          let defs = (Parser.parse_program_exn text).Parser.defs in
          let fuel = Limits.of_int 100_000 in
          let sol = Rec_eval.solve ~fuel ?window ~advice defs Db.empty in
          Alcotest.(check (option int)) (label ^ ": fuel left") (Some (100_000 - spent))
            (Limits.remaining fuel);
          List.iter
            (fun (c, printed) ->
              Alcotest.(check string) (label ^ ": " ^ c) printed
                (Fmt.str "%a" Rec_eval.pp_vset (Rec_eval.constant sol c)))
            bounds)
        [ ("naive", Advice.naive Advice.none); ("semi-naive", Advice.none) ])
    cases

(* --- Join planning (select∘product fusion) --- *)

let test_join_plan_compose () =
  (* The composition idiom sigma_{pi2(pi1) = pi1(pi2)}(a x b) must plan
     as a residual-free equi-join on pi2 of the left vs pi1 of the
     right. *)
  let p =
    Pred.Eq
      ( Efun.Compose (Efun.Proj 2, Efun.Proj 1),
        Efun.Compose (Efun.Proj 1, Efun.Proj 2) )
  in
  match Join.plan p with
  | Some { Join.left_key; right_key; residual } ->
    Alcotest.(check bool) "left key = pi2" true (left_key = Efun.Proj 2);
    Alcotest.(check bool) "right key = pi1" true (right_key = Efun.Proj 1);
    Alcotest.(check int) "no residual" 0 (List.length residual)
  | None -> Alcotest.fail "compose predicate must plan"

let test_join_plan_residual () =
  let key =
    Pred.Eq
      ( Efun.Compose (Efun.Proj 1, Efun.Proj 1),
        Efun.Compose (Efun.Proj 1, Efun.Proj 2) )
  in
  let extra =
    Pred.Lt (Efun.Compose (Efun.Proj 2, Efun.Proj 1), Efun.Const (vi 10))
  in
  (match Join.plan (Pred.And (key, extra)) with
  | Some { Join.residual; _ } ->
    Alcotest.(check int) "non-key conjunct kept as residual" 1
      (List.length residual)
  | None -> Alcotest.fail "conjunction with an equi-key must plan");
  (* Two key conjuncts combine into a composite (tuple-valued) key and
     still leave no residual. *)
  let key2 =
    Pred.Eq
      ( Efun.Compose (Efun.Proj 2, Efun.Proj 1),
        Efun.Compose (Efun.Proj 2, Efun.Proj 2) )
  in
  match Join.plan (Pred.And (key, key2)) with
  | Some { Join.residual; _ } ->
    Alcotest.(check int) "composite key, no residual" 0 (List.length residual)
  | None -> Alcotest.fail "two equi-keys must plan"

let test_join_plan_none () =
  Alcotest.(check bool) "Lt alone doesn't plan" true
    (Join.plan (Pred.Lt (Efun.Proj 1, Efun.Proj 2)) = None);
  (* An equality whose both sides factor through the same component is
     not an equi-join key. *)
  Alcotest.(check bool) "same-side Eq doesn't plan" true
    (Join.plan
       (Pred.Eq
          ( Efun.Compose (Efun.Proj 1, Efun.Proj 1),
            Efun.Compose (Efun.Proj 2, Efun.Proj 1) ))
    = None)

let test_join_exec_matches_filter () =
  let rel pairs =
    Value.set (List.map (fun (x, y) -> Value.pair (vi x) (vi y)) pairs)
  in
  let a = rel [ (1, 2); (2, 3); (3, 3) ]
  and b = rel [ (2, 5); (3, 6); (9, 9) ] in
  let p =
    Pred.Eq
      ( Efun.Compose (Efun.Proj 2, Efun.Proj 1),
        Efun.Compose (Efun.Proj 1, Efun.Proj 2) )
  in
  let builtins = Builtins.default in
  let plan = Option.get (Join.plan p) in
  let unfused =
    Value.filter (fun v -> Pred.eval builtins p v = Some true) (Value.product a b)
  in
  Alcotest.check check_value "hash join = product-then-filter" unfused
    (Join.exec builtins plan a b)

let prop_fused_eval_equals_unfused =
  (* The planner-equivalence property behind experiment E6: on random
     recursive bodies — including shapes the planner cannot fuse — hash
     join evaluation returns byte-identical sets and spends identical
     fuel, under both IFP strategies. *)
  QCheck.Test.make ~name:"fused eval = unfused eval (value and fuel)"
    ~count:(Tgen.qcount 200)
    QCheck.(pair Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (body, edges) ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let e = Expr.ifp "x" body in
      let run advice =
        let fuel = Limits.of_int 400 in
        try Ok (Eval.eval ~fuel ~advice no_defs db e, Limits.remaining fuel)
        with Limits.Diverged _ -> Error `Diverged
      in
      List.for_all
        (fun advice ->
          match (run advice, run (Advice.unfused advice)) with
          | Ok (v1, f1), Ok (v2, f2) -> Value.equal v1 v2 && f1 = f2
          | Error `Diverged, Error `Diverged -> true
          | _ -> false)
        [ Advice.naive Advice.none; Advice.none ])

let prop_fused_rec_eval_equals_unfused =
  (* Same equivalence for the three-valued alternating fixpoint: both
     bounds of every constant, and the fuel spent, must agree. *)
  QCheck.Test.make ~name:"fused rec_eval = unfused (bounds and fuel)"
    ~count:(Tgen.qcount 100)
    QCheck.(triple Tgen.ifp_body_arb Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (b1, b2, edges) ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let subst to_ e =
        Expr.map_rels (fun n -> Expr.rel (if n = "x" then to_ else n)) e
      in
      let defs =
        Defs.make
          [ Defs.constant "c" (subst "d" b1); Defs.constant "d" (subst "c" b2) ]
      in
      let run advice =
        let fuel = Limits.of_int 5000 in
        try
          let sol = Rec_eval.solve ~fuel ~advice defs db in
          Ok
            ( Rec_eval.constant sol "c",
              Rec_eval.constant sol "d",
              Limits.remaining fuel )
        with Limits.Diverged _ -> Error `Diverged
      in
      match (run Advice.none, run (Advice.unfused Advice.none)) with
      | Ok (c1, d1, f1), Ok (c2, d2, f2) ->
        Value.equal c1.Rec_eval.low c2.Rec_eval.low
        && Value.equal c1.Rec_eval.high c2.Rec_eval.high
        && Value.equal d1.Rec_eval.low d2.Rec_eval.low
        && Value.equal d1.Rec_eval.high d2.Rec_eval.high
        && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

(* The engine equivalences above compare the default path with the
   reference paths the overlays select; if an overlay did not reach its
   path they would compare a path with itself and still pass. Pin what
   each path does on the TC of a 24-edge chain, as an [Ifp], as a
   recursive constant and as a constant whose body is the [Ifp]: the
   naive loops re-probe the whole accumulated set every round, the
   unfused ones never join, and all take the same iterations. Columns:
   join/probe, plan/fused, plan/unfused, eval/ifp_iter,
   rec_eval/phase_iter, rec_eval/ifp_iter. *)
let test_reference_paths_reached () =
  let n = 24 in
  let db =
    Db.of_list [ ("edge", List.init n (fun i -> Value.pair (vi i) (vi (i + 1)))) ]
  in
  let body x = Expr.(union (rel "edge") (compose x (rel "edge"))) in
  let tc_ifp = Expr.ifp "x" (body (Expr.rel "x")) in
  let tc_defs = Defs.make [ Defs.constant "tc" (body (Expr.rel "tc")) ] in
  let nested_defs = Defs.make [ Defs.constant "tc" tc_ifp ] in
  let counters run =
    Obs.Metrics.reset ();
    Obs.Metrics.with_collecting run;
    let sn = Obs.Metrics.snapshot () in
    Obs.Metrics.reset ();
    List.map
      (fun c -> Obs.Metrics.counter_total sn c)
      [ "join/probe"; "plan/fused"; "plan/unfused"; "eval/ifp_iter";
        "rec_eval/phase_iter"; "rec_eval/ifp_iter" ]
  in
  let eval advice () = ignore (Eval.eval ~advice no_defs db tc_ifp) in
  let solve defs advice () = ignore (Rec_eval.solve ~advice defs db) in
  let naive = Advice.naive Advice.none and unfused = Advice.unfused Advice.none in
  List.iter
    (fun (label, run, expected) ->
      Alcotest.(check (list int)) label expected (counters run))
    [ ("eval, default", eval Advice.none, [ 300; 25; 0; 25; 0; 0 ]);
      ("eval, naive", eval naive, [ 4900; 25; 0; 25; 0; 0 ]);
      ("eval, unfused", eval unfused, [ 0; 0; 25; 25; 0; 0 ]);
      ("rec_eval, default", solve tc_defs Advice.none, [ 1200; 100; 0; 0; 100; 0 ]);
      ("rec_eval, naive", solve tc_defs naive, [ 19600; 100; 0; 0; 100; 0 ]);
      ("rec_eval, unfused", solve tc_defs unfused, [ 0; 0; 100; 0; 100; 0 ]);
      ( "rec_eval nested ifp, default",
        solve nested_defs Advice.none,
        [ 4800; 392; 0; 0; 8; 200 ] );
      ( "rec_eval nested ifp, naive",
        solve nested_defs naive,
        [ 78400; 200; 0; 0; 8; 200 ] );
      ( "rec_eval nested ifp, unfused",
        solve nested_defs unfused,
        [ 0; 0; 392; 0; 8; 200 ] ) ]

let suite =
  suite
  @ [
      Alcotest.test_case "delta linearity" `Quick test_delta_linearity;
      Alcotest.test_case "semi-naive mixture body" `Quick
        test_seminaive_mixture_body;
      QCheck_alcotest.to_alcotest prop_seminaive_ifp_equals_naive;
      QCheck_alcotest.to_alcotest prop_seminaive_rec_eval_equals_naive;
      Alcotest.test_case "rec_eval pinned fuel and bounds" `Quick
        test_rec_eval_pinned_fuel;
      Alcotest.test_case "join plan: compose idiom" `Quick test_join_plan_compose;
      Alcotest.test_case "join plan: residual and composite keys" `Quick
        test_join_plan_residual;
      Alcotest.test_case "join plan: fallback cases" `Quick test_join_plan_none;
      Alcotest.test_case "join exec = filter∘product" `Quick
        test_join_exec_matches_filter;
      QCheck_alcotest.to_alcotest prop_fused_eval_equals_unfused;
      QCheck_alcotest.to_alcotest prop_fused_rec_eval_equals_unfused;
      Alcotest.test_case "reference paths reached (pinned counters)" `Quick
        test_reference_paths_reached;
    ]

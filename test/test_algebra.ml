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
    (Result.is_error (Defs.validate rec_param));
  (* The named pair lies on the cycle g -> h -> g; h's call to k does
     not. *)
  let call f = Expr.call f [ Expr.Param "a" ] in
  let through_cycle =
    Defs.make
      [
        Defs.define "f" [ "a" ] (call "g");
        Defs.define "g" [ "a" ] (call "h");
        Defs.define "h" [ "a" ] (Expr.Union (call "g", call "k"));
        Defs.define "k" [ "a" ] (Expr.Param "a");
      ]
  in
  let names_cycle msg =
    List.exists
      (fun pair -> String.starts_with ~prefix:("parameterised definitions " ^ pair) msg)
      [ "g and h "; "h and g " ]
  in
  match Defs.validate through_cycle with
  | Error msg -> Alcotest.(check bool) ("names g and h: " ^ msg) true (names_cycle msg)
  | Ok () -> Alcotest.fail "expected recursive definitions to be rejected"

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

(* --- semi-naive delta evaluation (Delta) --- *)

(* A body is worth deriving when a tracked name occurs outside every
   nested [Ifp]: under a difference's right side too, whose rule reads
   the other bound's change. *)
let test_delta_linearity () =
  let x = Expr.rel "x" in
  let eligible e = Delta.eligible [ "x" ] e in
  Alcotest.(check bool) "union/product" true
    (eligible Expr.(union (rel "edge") (product x (rel "edge"))));
  Alcotest.(check bool) "diff-right" true (eligible Expr.(diff (rel "edge") x));
  Alcotest.(check bool) "mixed body" true
    (eligible Expr.(union (product x (rel "edge")) (diff (rel "edge") x)));
  Alcotest.(check bool) "inter places x under diff-right" true
    (eligible Expr.(inter (rel "edge") x));
  Alcotest.(check bool) "only inside a nested ifp" false
    (eligible Expr.(diff (rel "edge") (ifp "y" (union x (rel "y")))));
  (* Occurrences bound by an inner IFP over the same name don't count. *)
  Alcotest.(check bool) "shadowed occurrences ignored" false
    (eligible Expr.(ifp "x" (union x (rel "edge"))));
  Alcotest.(check bool) "absent" false (eligible (Expr.rel "edge"))

let test_seminaive_mixture_body () =
  (* A body mixing an occurrence through composition with one under
     Diff's right argument: both strategies must agree, the semi-naive
     run deriving both through their rules. *)
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

(* A nested [Ifp] whose value shrinks as the outer variable grows, under
   a difference's right side: [5] enters [x] only when the inner [Ifp]
   loses it. Its minus is not known, so the difference takes its whole
   current value as its plus; assuming the inner [Ifp] only grew would
   stop the semi-naive loop at {1}. *)
let test_seminaive_nested_ifp_shrinks () =
  let x = Expr.rel "x" in
  let inner = Expr.(ifp "y" (diff (lit [ vi 5 ]) (map (Efun.add_const 4) x))) in
  let e = Expr.(ifp "x" (union (lit [ vi 1 ]) (union (diff (lit [ vi 5 ]) inner) x))) in
  let naive = Eval.eval ~advice:(Advice.naive Advice.none) no_defs Db.empty e in
  Obs.Metrics.reset ();
  let semi = Obs.Metrics.with_collecting (fun () -> Eval.eval no_defs Db.empty e) in
  let sn = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  Alcotest.check check_value "naive" (Value.set [ vi 1; vi 5 ]) naive;
  Alcotest.check check_value "semi-naive" naive semi;
  Alcotest.(check int) "delta/reeval" 2 (Obs.Metrics.counter_total sn "delta/reeval")

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
        try
          let v = Eval.eval ~fuel ~advice no_defs db e in
          Ok (v, Limits.remaining fuel)
        with Limits.Diverged _ -> Error `Diverged
      in
      match (run (Advice.naive Advice.none), run Advice.none) with
      | Ok (a, f1), Ok (b, f2) -> Value.equal a b && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

(* The calculus contract: for an expression over d1/d2 whose inputs go
   from independent old sets to independent new ones, [Delta.derive]'s
   change ({plus; minus}) satisfies now ∖ old ⊆ plus ⊆ now, old ∖ now ⊆
   minus and minus ∩ now = ∅. The input changes carry slack, as the
   contract allows: plus also holds new tuples that were there before,
   minus also tuples that never were. Checked at one bound, and with a
   second, independent bound read under every difference's right side,
   the value then being [a_this − b_other] down the tree. *)
let prop_delta_contract =
  let inputs =
    QCheck.Gen.(
      list_repeat 2
        (triple Tgen.small_set_gen Tgen.small_set_gen Tgen.small_set_gen))
  in
  let print_inputs l =
    String.concat "; "
      (List.map
         (fun (o, n, x) -> Fmt.str "%a -> %a (slack %a)" Value.pp o Value.pp n Value.pp x)
         l)
  in
  let names = [ "d1"; "d2" ] in
  let contract ~old ~now c =
    Value.subset (Value.diff now old) c.Delta.plus
    && Value.subset c.Delta.plus now
    && Value.subset (Value.diff old now) c.Delta.minus
    && Value.equal (Value.inter c.Delta.minus now) Value.empty_set
  in
  QCheck.Test.make ~name:"delta calculus meets its contract"
    ~count:(Tgen.qcount 300)
    (QCheck.make
       ~print:(fun (e, this, other) ->
         Expr.to_string e ^ " | " ^ print_inputs this ^ " | " ^ print_inputs other)
       QCheck.Gen.(triple Tgen.expr_gen inputs inputs))
    (fun (e, this, other) ->
      let builtins = Builtins.default in
      (* The databases of one bound, before or after. *)
      let db side l = Db.of_list (List.map2 (fun n t -> (n, Value.elements (side t))) names l) in
      let before (o, _, _) = o and after (_, n, _) = n in
      (* The value at [here] of [e] over the databases of both bounds. *)
      let rec eval dbs here e =
        let recur = eval dbs in
        match e with
        | Expr.Rel n -> Option.get (Db.find (if here then fst dbs else snd dbs) n)
        | Expr.Lit v -> v
        | Expr.Union (a, b) -> Value.union (recur here a) (recur here b)
        | Expr.Diff (a, b) -> Value.diff (recur here a) (recur (not here) b)
        | Expr.Product (a, b) -> Value.product (recur here a) (recur here b)
        | Expr.Select (p, a) ->
          Value.filter (fun v -> Pred.eval builtins p v = Some true) (recur here a)
        | Expr.Map (f, a) -> Value.filter_map_set (Efun.apply builtins f) (recur here a)
        | Expr.Ifp _ | Expr.Call _ | Expr.Param _ -> assert false
      in
      let changes l =
        List.map2
          (fun n (o, now, slack) ->
            ( n,
              { Delta.plus = Value.union (Value.diff now o) (Value.inter slack now);
                minus = Value.union (Value.diff o now) (Value.diff slack now) } ))
          names l
      in
      let check this other =
        let dbs side = (db side this, db side other) in
        let bound here l = { Delta.value = eval (dbs after) here; changes = changes l } in
        let c =
          Delta.derive ~builtins ~need:Delta.Both ~other:(bound false other) (bound true this) e
        in
        contract ~old:(eval (dbs before) true e) ~now:(eval (dbs after) true e) c
      in
      check this this && check this other)

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

(* Pinned fuel and bounds of [Rec_eval.solve], under both strategies,
   split into components and unsplit. The unsplit figures were taken
   from the engine before its phases evaluated only the bound they grow
   and accumulated through [Delta.Acc], and before it solved component
   by component; those changes must leave every round of the
   whole-program alternation, and so its fuel, where it was. The split
   figures pin the component order: [even] is a positive component
   solved in one phase, [undefined] is one alternating component either
   way, and a constant that does not read itself ([triangle]'s four,
   the literals [e] and [n]) is evaluated once, with no round and no
   fuel. The hand-written program puts an [Ifp] inside a recursive
   body, under a difference's right side, which the random bodies of
   [Tgen] never produce: the nested loop reads the undefined [w], so it
   must still iterate on both bounds. *)
let nested_ifp_program =
  "let e = {[1,2],[2,3],[3,1],[3,4],[4,5],[6,7],[7,6]};\n\
   let n = {1,2,3,4,5,6,7};\n\
   let w = (n - ifp v. map[pi1 . pi1](sel[pi2 . pi1 = pi2](e x (w + v))))\n\
  \  + map[pi2 . pi1](sel[pi1 . pi1 = pi2](e x w));\n"

let test_rec_eval_pinned_fuel () =
  let window = Value.set (List.init 21 vi) in
  (* label, program, window, fuel unsplit, fuel split, bounds *)
  let cases =
    [ ( "even", example "even", Some window, 50, 13,
        [ ("evens", "{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}") ] );
      ("undefined", example "undefined", None, 4, 4, [ ("s", "[certain {}, possible {a}]") ]);
      ( "triangle", example "triangle", None, 14, 0,
        [ ("r", "{[1, 1], [2, 1], [3, 2], [4, 2], [5, 3], [6, 3], [7, 4], [8, 4]}");
          ("s", "{[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6], [7, 7], [8, 8]}");
          ("t", "{[1, 100], [2, 200]}");
          ( "q",
            "{[[[1, 1], [1, 1]], [1, 100]], [[[2, 1], [1, 1]], [1, 100]], \
             [[[3, 2], [2, 2]], [2, 200]], [[[4, 2], [2, 2]], [2, 200]]}" ) ] );
      ( "nested ifp", nested_ifp_program, None, 57, 40,
        [ ("e", "{[1, 2], [2, 3], [3, 1], [3, 4], [4, 5], [6, 7], [7, 6]}");
          ("n", "{1, 2, 3, 4, 5, 6, 7}");
          ("w", "[certain {5}, possible {5, 6, 7}]") ] ) ]
  in
  List.iter
    (fun (label, text, window, unsplit_spent, split_spent, bounds) ->
      List.iter
        (fun (sname, advice, spent) ->
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
        [ ("naive, unsplit", Advice.unsplit (Advice.naive Advice.none), unsplit_spent);
          ("semi-naive, unsplit", Advice.unsplit Advice.none, unsplit_spent);
          ("naive", Advice.naive Advice.none, split_spent);
          ("semi-naive", Advice.none, split_spent) ])
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
    (Join.exec builtins plan ~map:Efun.Id a b)

(* --- Projected joins ------------------------------------------------ *)

(* Element functions over a join's pairs, covering every [Join.split]
   class: the pair itself ([Both_sides], as are [pi3] and [arg], which
   are undefined on it), one side ([Left_only], [Right_only]), both, and
   a constant ([Either_side]). *)
let pair_maps =
  let open Efun in
  [ ("id", Id); ("pi1", Proj 1); ("pi2", Proj 2);
    ("pi1 . pi1", Compose (Proj 1, Proj 1)); ("pi2 . pi2", Compose (Proj 2, Proj 2));
    ("[pi2, pi1]", Tuple_of [ Proj 2; Proj 1 ]); ("7", Const (vi 7)); ("pi3", Proj 3);
    ("arg(f, 1)", Arg ("f", 1)); ("arg(f, 1) . pi1", Compose (Arg ("f", 1), Proj 1));
    ("add(pi2 . pi1, 1)", App ("add", [ Compose (Proj 2, Proj 1); Const (vi 1) ]));
    ("g(pi2, pi1 . pi1)", App ("g", [ Proj 2; Compose (Proj 1, Proj 1) ])) ]

(* Join inputs: mostly pairs of small integers, with elements on which
   the pair keys are undefined — integers, constructor terms f(k) and
   triples. *)
let join_input_gen =
  QCheck.Gen.(
    let small = map vi (int_range 0 3) in
    let elem =
      frequency
        [ (6, map2 Value.pair small small);
          (1, small);
          (1, map (fun k -> Value.cstr "f" [ k ]) small);
          (1, map (fun k -> Value.tuple [ k; k; k ]) small) ]
    in
    map Value.set (list_size (int_range 0 12) elem))

(* Equi-join predicates: the composition's key, the key with a residual
   conjunct, a composite key, whole elements as keys, and a key read
   through a constructor. *)
let join_preds =
  let open Efun in
  let l f = Compose (f, Proj 1) and r f = Compose (f, Proj 2) in
  [ Pred.Eq (l (Proj 2), r (Proj 1));
    Pred.And (Pred.Eq (l (Proj 2), r (Proj 1)), Pred.Lt (l (Proj 1), r (Proj 2)));
    Pred.And (Pred.Eq (l (Proj 1), r (Proj 1)), Pred.Eq (l (Proj 2), r (Proj 2)));
    Pred.Eq (Proj 1, Proj 2);
    Pred.Eq (l (Arg ("f", 1)), r (Proj 2)) ]

let prop_projected_join =
  QCheck.Test.make ~name:"projected join = map of the bare join" ~count:(Tgen.qcount 300)
    (QCheck.make
       ~print:(fun (p, (f, _), l, r) ->
         Fmt.str "sel[%a], map[%s]: %a x %a" Pred.pp p f Value.pp l Value.pp r)
       QCheck.Gen.(
         quad (oneofl join_preds) (oneofl pair_maps) join_input_gen join_input_gen))
    (fun (p, (_, f), l, r) ->
      let builtins = Builtins.default in
      let plan = Option.get (Join.plan p) in
      let bare = Join.exec builtins plan ~map:Efun.Id l r in
      Value.equal bare
        (Value.filter (fun v -> Pred.eval builtins p v = Some true) (Value.product l r))
      && Value.equal
           (Join.exec builtins plan ~map:f l r)
           (Value.filter_map_set (Efun.apply builtins f) bare))

let prop_apply_pair =
  QCheck.Test.make ~name:"Efun.apply_pair = apply on the pair" ~count:(Tgen.qcount 300)
    (QCheck.make
       ~print:(fun ((f, _), x, y) -> Fmt.str "%s on %a, %a" f Value.pp x Value.pp y)
       QCheck.Gen.(triple (oneofl pair_maps) Tgen.deep_value_gen Tgen.deep_value_gen))
    (fun ((_, f), x, y) ->
      let builtins = Builtins.default in
      Option.equal Value.equal
        (Efun.apply_pair builtins f x y)
        (Efun.apply builtins f (Value.pair x y)))

(* A semijoin counts its call, build and probe as the bare join does,
   and [join/out] is what it returns: the image, not the pairs. [l] has
   six pairs [i, i mod 2] and an integer, [r] eight pairs [j mod 2, j]
   and one whose key [l] lacks; they join in 24 pairs. *)
let test_semijoin_counters () =
  let l = Value.set (vi 99 :: List.init 6 (fun i -> Value.pair (vi i) (vi (i mod 2))))
  and r =
    Value.set
      (Value.pair (vi 5) (vi 100)
      :: List.init 8 (fun j -> Value.pair (vi (j mod 2)) (vi j)))
  in
  let plan =
    Option.get
      (Join.plan
         (Pred.Eq
            ( Efun.Compose (Efun.Proj 2, Efun.Proj 1),
              Efun.Compose (Efun.Proj 1, Efun.Proj 2) )))
  in
  List.iter
    (fun (label, out) ->
      let f = List.assoc label pair_maps in
      Obs.Metrics.reset ();
      let v =
        Obs.Metrics.with_collecting (fun () -> Join.exec Builtins.default plan ~map:f l r)
      in
      let sn = Obs.Metrics.snapshot () in
      Obs.Metrics.reset ();
      Alcotest.(check (list int)) (label ^ ": join/exec, build, probe, out, answer")
        [ 1; 9; 7; out; out ]
        (List.map (Obs.Metrics.counter_total sn)
           [ "join/exec"; "join/build"; "join/probe"; "join/out" ]
        @ [ Value.cardinal v ]))
    [ ("id", 24); ("pi1", 6); ("pi1 . pi1", 6); ("pi2", 8); ("pi2 . pi2", 8); ("7", 1) ]

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
        try
          let v = Eval.eval ~fuel ~advice no_defs db e in
          Ok (v, Limits.remaining fuel)
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
   unfused ones never join, and all take the same iterations. Split, the
   constant whose body is the [Ifp] does not read itself: it is
   evaluated once, and its [Ifp], over defined inputs only, iterates one
   bound, the same work as [Eval.eval]'s. Columns: join/probe,
   plan/fused, plan/unfused, eval/ifp_iter (the one [Ifp] loop),
   rec_eval/phase_iter. *)
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
        "rec_eval/phase_iter" ]
  in
  let eval advice () = ignore (Eval.eval ~advice no_defs db tc_ifp) in
  let solve defs advice () = ignore (Rec_eval.solve ~advice defs db) in
  let naive = Advice.naive Advice.none and unfused = Advice.unfused Advice.none in
  let unsplit = Advice.unsplit in
  List.iter
    (fun (label, run, expected) ->
      Alcotest.(check (list int)) label expected (counters run))
    [ ("eval, default", eval Advice.none, [ 300; 25; 0; 25; 0 ]);
      ("eval, naive", eval naive, [ 4900; 25; 0; 25; 0 ]);
      ("eval, unfused", eval unfused, [ 0; 0; 25; 25; 0 ]);
      ( "rec_eval unsplit, default",
        solve tc_defs (unsplit Advice.none),
        [ 1200; 100; 0; 0; 100 ] );
      ("rec_eval unsplit, naive", solve tc_defs (unsplit naive), [ 19600; 100; 0; 0; 100 ]);
      ("rec_eval unsplit, unfused", solve tc_defs (unsplit unfused), [ 0; 0; 100; 0; 100 ]);
      ( "rec_eval nested ifp unsplit, default",
        solve nested_defs (unsplit Advice.none),
        [ 2400; 200; 0; 200; 8 ] );
      ( "rec_eval nested ifp unsplit, naive",
        solve nested_defs (unsplit naive),
        [ 39200; 200; 0; 200; 8 ] );
      ( "rec_eval nested ifp unsplit, unfused",
        solve nested_defs (unsplit unfused),
        [ 0; 0; 200; 200; 8 ] );
      (* Split, [tc_defs] is one positive component: one phase. *)
      ("rec_eval, default", solve tc_defs Advice.none, [ 300; 25; 0; 0; 25 ]);
      ("rec_eval, naive", solve tc_defs naive, [ 4900; 25; 0; 0; 25 ]);
      ("rec_eval, unfused", solve tc_defs unfused, [ 0; 0; 25; 0; 25 ]);
      ( "rec_eval nested ifp, default",
        solve nested_defs Advice.none,
        [ 300; 25; 0; 25; 0 ] );
      ("rec_eval nested ifp, naive", solve nested_defs naive, [ 4900; 25; 0; 25; 0 ]);
      ("rec_eval nested ifp, unfused", solve nested_defs unfused, [ 0; 0; 25; 25; 0 ]) ]

(* A constant that does not read itself is evaluated once, with no
   round and no fuel: a product constant builds |r|·|s| tuples, once. *)
let test_product_constant_once () =
  let set n = Expr.lit (List.init n vi) in
  let defs =
    Defs.make
      [ Defs.constant "r" (set 20); Defs.constant "s" (set 30);
        Defs.constant "q" (Expr.product (Expr.rel "r") (Expr.rel "s")) ]
  in
  Obs.Metrics.reset ();
  let fuel = Limits.of_int 100 in
  let sol = Obs.Metrics.with_collecting (fun () -> Rec_eval.solve ~fuel defs Db.empty) in
  let sn = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  Alcotest.(check int) "q" 600 (Value.cardinal (Rec_eval.constant sol "q").Rec_eval.low);
  Alcotest.(check (list int)) "eval/product_out, rec_eval/round, fuel spent" [ 600; 0; 0 ]
    [ Obs.Metrics.counter_total sn "eval/product_out";
      Obs.Metrics.counter_events sn "rec_eval/round";
      100 - Option.get (Limits.remaining fuel) ]

(* Thm 3.5 made structural: on a program with no recursive constant the
   three-valued query is the two-valued evaluator — physically one set
   as both bounds, [Eval.eval]'s value, and the same fuel. The constant
   [c] is an [Ifp] over [edge], and the query subtracts [c] from an
   [Ifp] that reads [c] for [edge]. *)
let prop_query_defined_is_eval =
  QCheck.Test.make ~name:"rec_eval query on defined inputs = eval (value and fuel)"
    ~count:(Tgen.qcount 200)
    QCheck.(triple Tgen.ifp_body_arb Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (b1, b2, edges) ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let defs = Defs.make [ Defs.constant "c" (Expr.ifp "x" b1) ] in
      let q =
        let b2 = Expr.map_rels (fun n -> Expr.rel (if n = "edge" then "c" else n)) b2 in
        Expr.diff (Expr.ifp "x" b2) (Expr.rel "c")
      in
      let fuel () = Limits.of_int 800 in
      let three =
        let fuel = fuel () in
        try
          let v = Rec_eval.query (Rec_eval.solve ~fuel defs db) q in
          Ok (v, Limits.remaining fuel)
        with Limits.Diverged _ -> Error `Diverged
      in
      let two =
        let fuel = fuel () in
        try
          let w = Eval.eval ~fuel defs db q in
          Ok (w, Limits.remaining fuel)
        with Limits.Diverged _ -> Error `Diverged
      in
      match (three, two) with
      | Ok (v, f1), Ok (w, f2) ->
        v.Rec_eval.low == v.Rec_eval.high && Value.equal v.Rec_eval.low w && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

(* --- Component order ---------------------------------------------- *)

let prop_rec_eval_split_equals_unsplit =
  (* Solving component by component must not move a bound. Three
     constants over [edge] take random bodies, each body's variable
     wired to a constant: as a chain [c <- d <- e] (three components), a
     mutual pair [c <-> d] read by [e] (two) or a three-cycle (one).
     Components come out positive or self-negating, two-valued or not,
     and the split engine must give byte-identical bounds to the
     whole-program alternation. Fuel is not compared: the split spends
     what its components need. *)
  let wiring =
    QCheck.make
      ~print:(fun (w, _) -> w)
      (QCheck.Gen.oneofl
         [ ("chain", ("d", "e", "e")); ("pair", ("d", "c", "d")); ("cycle", ("d", "e", "c")) ])
  in
  QCheck.Test.make ~name:"rec_eval split = unsplit (bounds)" ~count:(Tgen.qcount 100)
    QCheck.(
      pair (triple Tgen.ifp_body_arb Tgen.ifp_body_arb Tgen.ifp_body_arb)
        (pair wiring Tgen.graph_arb))
    (fun ((b1, b2, b3), ((_, (tc, td, te)), edges)) ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let subst to_ e =
        Expr.map_rels (fun n -> Expr.rel (if n = "x" then to_ else n)) e
      in
      let defs =
        Defs.make
          [ Defs.constant "c" (subst tc b1);
            Defs.constant "d" (subst td b2);
            Defs.constant "e" (subst te b3) ]
      in
      let run advice =
        try
          let sol = Rec_eval.solve ~fuel:(Limits.of_int 100_000) ~advice defs db in
          Ok (List.map (Rec_eval.constant sol) [ "c"; "d"; "e" ])
        with Limits.Diverged _ -> Error `Diverged
      in
      match (run Advice.none, run (Advice.unsplit Advice.none)) with
      | Ok split, Ok unsplit ->
        List.for_all2
          (fun a b ->
            Value.equal a.Rec_eval.low b.Rec_eval.low
            && Value.equal a.Rec_eval.high b.Rec_eval.high)
          split unsplit
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

(* An [Ifp] inside a recursive body reads the constants being solved:
   [c] is an [Ifp] whose [edge] is [d], and [d] reads [c] for [x]. Its
   loop iterates one bound whenever those constants are defined at that
   moment, both otherwise; every path must reach the same bounds. *)
let prop_nested_ifp_paths_agree =
  QCheck.Test.make ~name:"nested ifp in recursion: paths agree (bounds)"
    ~count:(Tgen.qcount 100)
    QCheck.(triple Tgen.ifp_body_arb Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (b1, b2, edges) ->
      let db =
        Db.of_list
          [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]
      in
      let subst from to_ e =
        Expr.map_rels (fun n -> Expr.rel (if n = from then to_ else n)) e
      in
      let defs =
        Defs.make
          [ Defs.constant "c" (Expr.ifp "x" (subst "edge" "d" b1));
            Defs.constant "d" (Expr.union (Expr.rel "edge") (subst "x" "c" b2)) ]
      in
      let run advice =
        try
          let sol = Rec_eval.solve ~fuel:(Limits.of_int 100_000) ~advice defs db in
          let printed c = Fmt.str "%a" Rec_eval.pp_vset (Rec_eval.constant sol c) in
          Ok (List.map printed [ "c"; "d" ])
        with Limits.Diverged _ -> Error `Diverged
      in
      let reference = run (Advice.unsplit (Advice.naive Advice.none)) in
      List.for_all
        (fun advice -> run advice = reference)
        [ Advice.none; Advice.naive Advice.none; Advice.unsplit Advice.none ])

(* One program with every kind of component, in dependency order: [s]
   negates itself, [t] is positive over the undefined [s], [e] and [n]
   are literals, [tc] is positive and recursive over [e], and [far]
   subtracts [tc]. Split, [s] alone alternates (one round: a high phase
   of 2 iterations, a low phase of 1); [tc] takes one two-valued low
   phase of 4 iterations; [t], [e], [n] and [far] do not read
   themselves, so each is evaluated once, [t] for both of its bounds,
   with no round or phase. Unsplit, the whole program alternates for 2
   rounds of two 5-iteration phases. Columns: rec_eval/round,
   rec_eval/phase_iter, high phases, low phases. *)
let mixed_program =
  "let s = {a} - s;\n\
   let t = s + {b};\n\
   let e = {[1,2],[2,3],[3,4]};\n\
   let tc = e + map[[pi1 . pi1, pi2 . pi2]](sel[pi2 . pi1 = pi1 . pi2](e x tc));\n\
   let n = {1,2,3,4};\n\
   let far = (n x n) - tc;\n"

let test_rec_eval_components () =
  let defs = (Parser.parse_program_exn mixed_program).Parser.defs in
  Alcotest.(check (list (list string))) "components, dependencies first"
    [ [ "s" ]; [ "t" ]; [ "e" ]; [ "tc" ]; [ "n" ]; [ "far" ] ]
    (Defs.components (Defs.inline_all defs));
  let bounds =
    [ ("s", "[certain {}, possible {a}]");
      ("t", "[certain {b}, possible {a, b}]");
      ("e", "{[1, 2], [2, 3], [3, 4]}");
      ("tc", "{[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]}");
      ("n", "{1, 2, 3, 4}");
      ( "far",
        "{[1, 1], [2, 1], [2, 2], [3, 1], [3, 2], [3, 3], [4, 1], [4, 2], [4, 3], [4, 4]}"
      ) ]
  in
  List.iter
    (fun (label, advice, expected) ->
      Obs.Metrics.reset ();
      let sol = Obs.Metrics.with_collecting (fun () -> Rec_eval.solve ~advice defs Db.empty) in
      let sn = Obs.Metrics.snapshot () in
      Obs.Metrics.reset ();
      List.iter
        (fun (c, printed) ->
          Alcotest.(check string) (label ^ ": " ^ c) printed
            (Fmt.str "%a" Rec_eval.pp_vset (Rec_eval.constant sol c)))
        bounds;
      Alcotest.(check (list int)) (label ^ ": rounds, iterations, phases") expected
        [ Obs.Metrics.counter_events sn "rec_eval/round";
          Obs.Metrics.counter_total sn "rec_eval/phase_iter";
          Obs.Metrics.span_calls sn "rec_eval > round > high";
          Obs.Metrics.span_calls sn "rec_eval > round > low" ];
      Alcotest.(check int) (label ^ ": rounds") (List.hd expected) (Rec_eval.rounds sol))
    [ ("split", Advice.none, [ 2; 7; 1; 2 ]);
      ("unsplit", Advice.unsplit Advice.none, [ 2; 20; 2; 2 ]) ]

(* The translated WIN chain of 16 moves ([Tgen.win_chain]) under
   [Rec_eval.solve]: one alternating component, 9 rounds of a high and a
   low phase. Each phase iteration derives [win] through a difference
   whose right side reads [win] at the other bound — fixed in a phase,
   so its change is empty and one join is left per iteration. The
   derivation that re-evaluated such a difference in full joined twice
   per iteration, 36 join/exec at the same rounds, phase iterations and
   fuel. *)
let test_win_chain_joins () =
  let program, edb = Tgen.win_chain 16 in
  let tr = Translate.Datalog_to_alg.translate program edb in
  let fuel = Limits.of_int 1000 in
  Obs.Metrics.reset ();
  let sol =
    Obs.Metrics.with_collecting (fun () ->
        Rec_eval.solve ~fuel tr.Translate.Datalog_to_alg.defs tr.Translate.Datalog_to_alg.db)
  in
  let sn = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let certain, _ = Translate.Datalog_to_alg.pred_tuples sol tr "win" in
  Alcotest.(check int) "certain wins" 8 (List.length certain);
  Alcotest.(check (list int)) "rounds, phase iterations, fuel spent, join/exec"
    [ 9; 36; 45; 18 ]
    [ Rec_eval.rounds sol;
      Obs.Metrics.counter_total sn "rec_eval/phase_iter";
      1000 - Option.get (Limits.remaining fuel);
      Obs.Metrics.counter_total sn "join/exec" ]

let suite =
  suite
  @ [
      Alcotest.test_case "delta linearity" `Quick test_delta_linearity;
      Alcotest.test_case "semi-naive mixture body" `Quick
        test_seminaive_mixture_body;
      Alcotest.test_case "semi-naive: a nested ifp that shrinks" `Quick
        test_seminaive_nested_ifp_shrinks;
      QCheck_alcotest.to_alcotest prop_seminaive_ifp_equals_naive;
      QCheck_alcotest.to_alcotest prop_delta_contract;
      QCheck_alcotest.to_alcotest prop_seminaive_rec_eval_equals_naive;
      Alcotest.test_case "rec_eval pinned fuel and bounds" `Quick
        test_rec_eval_pinned_fuel;
      Alcotest.test_case "join plan: compose idiom" `Quick test_join_plan_compose;
      Alcotest.test_case "join plan: residual and composite keys" `Quick
        test_join_plan_residual;
      Alcotest.test_case "join plan: fallback cases" `Quick test_join_plan_none;
      Alcotest.test_case "join exec = filter∘product" `Quick
        test_join_exec_matches_filter;
      QCheck_alcotest.to_alcotest prop_projected_join;
      QCheck_alcotest.to_alcotest prop_apply_pair;
      Alcotest.test_case "semijoin counters" `Quick test_semijoin_counters;
      QCheck_alcotest.to_alcotest prop_fused_eval_equals_unfused;
      QCheck_alcotest.to_alcotest prop_fused_rec_eval_equals_unfused;
      Alcotest.test_case "reference paths reached (pinned counters)" `Quick
        test_reference_paths_reached;
      Alcotest.test_case "product constant evaluated once" `Quick
        test_product_constant_once;
      QCheck_alcotest.to_alcotest prop_query_defined_is_eval;
      QCheck_alcotest.to_alcotest prop_rec_eval_split_equals_unsplit;
      QCheck_alcotest.to_alcotest prop_nested_ifp_paths_agree;
      Alcotest.test_case "rec_eval components (pinned bounds and counters)" `Quick
        test_rec_eval_components;
      Alcotest.test_case "WIN chain: one join per phase iteration" `Quick
        test_win_chain_joins;
    ]

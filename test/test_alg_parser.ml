(* Algebra concrete-syntax tests. *)

open Recalg
open Algebra

let check_tvl = Alcotest.testable Tvl.pp Tvl.equal
let check_value = Alcotest.testable Value.pp Value.equal
let vi = Value.int

let eval_str ?window src =
  match Parser.parse_program ?builtins:None src with
  | Error msg -> Alcotest.fail msg
  | Ok p -> (
    match p.Parser.query with
    | None -> Alcotest.fail "expected a query"
    | Some q -> Rec_eval.query (Rec_eval.solve ?window p.Parser.defs Db.empty) q)

let test_parse_set_ops () =
  let v = eval_str "query ({1, 2} + {3}) - {2};" in
  Alcotest.check check_value "union/diff" (Value.set [ vi 1; vi 3 ]) v.Rec_eval.low

let test_parse_product_select_map () =
  let v =
    eval_str "query map[pi1]( sel[pi1 = pi2]({1, 2} x {2, 3}) );"
  in
  Alcotest.check check_value "join diagonal" (Value.set [ vi 2 ]) v.Rec_eval.low

let test_parse_defs_and_calls () =
  let v = eval_str "let inter(a, b) = $a - ($a - $b); query inter({1,2,3}, {2,3,4});" in
  Alcotest.check check_value "intersection" (Value.set [ vi 2; vi 3 ]) v.Rec_eval.low

let test_parse_recursive_constant () =
  let window = Value.set (List.init 11 vi) in
  let v = eval_str ~window "let evens = {0} + map[add(id, 2)](evens); query evens;" in
  Alcotest.check check_tvl "4 in" Tvl.True (Rec_eval.member v (vi 4));
  Alcotest.check check_tvl "5 out" Tvl.False (Rec_eval.member v (vi 5))

let test_parse_ifp () =
  let v =
    eval_str
      "query ifp s. ({[1,2], [2,3]} + map[[pi1 . pi1, pi2 . pi2]](sel[(pi2 . pi1) = (pi1 . pi2)]({[1,2],[2,3]} x s)));"
  in
  Alcotest.(check int) "transitive closure" 3 (Value.cardinal v.Rec_eval.low)

let test_parse_tuples_nested_sets () =
  let v = eval_str "query {[1, a], {2, 3}};" in
  Alcotest.(check int) "two elements" 2 (Value.cardinal v.Rec_eval.low);
  Alcotest.(check bool) "tuple member" true
    (Value.mem (Value.tuple [ vi 1; Value.sym "a" ]) v.Rec_eval.low)

let test_parse_undefined_membership () =
  let v = eval_str "let s = {1} - s; query s;" in
  Alcotest.check check_tvl "1 undef" Tvl.Undef (Rec_eval.member v (vi 1))

let test_parse_errors () =
  Alcotest.(check bool) "missing semi" true
    (Result.is_error (Parser.parse_program "let s = {1}"));
  Alcotest.(check bool) "double query" true
    (Result.is_error (Parser.parse_program "query {1}; query {2};"));
  Alcotest.(check bool) "reserved name" true
    (Result.is_error (Parser.parse_program "let map = {1};"));
  Alcotest.(check bool) "garbage" true (Result.is_error (Parser.parse_expr "{1} +"))

let test_parse_pred_connectives () =
  let v =
    eval_str "query sel[(id < 3 and not (id = 1)) or id = 9]({0,1,2,3,9});"
  in
  Alcotest.check check_value "boolean mix" (Value.set [ vi 0; vi 2; vi 9 ]) v.Rec_eval.low

let test_parse_constructor_tests () =
  (* arg/is over constructor values built by an uninterpreted function. *)
  let v = eval_str "query map[arg(s, 1)](sel[is(s, 1, id)](map[s(id)]({1, 2})));" in
  Alcotest.check check_value "wrap and unwrap" (Value.set [ vi 1; vi 2 ]) v.Rec_eval.low

let suite =
  [
    Alcotest.test_case "set ops" `Quick test_parse_set_ops;
    Alcotest.test_case "product/select/map" `Quick test_parse_product_select_map;
    Alcotest.test_case "defs and calls" `Quick test_parse_defs_and_calls;
    Alcotest.test_case "recursive constant" `Quick test_parse_recursive_constant;
    Alcotest.test_case "ifp" `Quick test_parse_ifp;
    Alcotest.test_case "tuples and nested sets" `Quick test_parse_tuples_nested_sets;
    Alcotest.test_case "undefined membership" `Quick test_parse_undefined_membership;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "test connectives" `Quick test_parse_pred_connectives;
    Alcotest.test_case "constructor tests" `Quick test_parse_constructor_tests;
  ]

let prop_print_parse_roundtrip =
  (* Printing in concrete syntax and re-parsing is the identity on the
     generator's expression family. *)
  QCheck.Test.make ~name:"print/parse round trip" ~count:200 Tgen.expr_arb
    (fun e ->
      match Parser.parse_expr (Expr.to_string e) with
      | Ok e' -> Expr.equal e e'
      | Error _ -> false)

let test_program_roundtrip () =
  let src =
    "let win = map[pi1]((move - (map[pi1](move) x win)));\n\
     let inter(a, b) = ($a - ($a - $b));\nquery inter({1, 2}, {2});\n"
  in
  let p = Parser.parse_program_exn src in
  let printed =
    Fmt.str "%a@.query %s;@." Defs.pp p.Parser.defs
      (Expr.to_string (Option.get p.Parser.query))
  in
  let p' = Parser.parse_program_exn printed in
  Alcotest.(check bool) "defs survive" true
    (List.equal
       (fun (a : Defs.def) (b : Defs.def) ->
         a.Defs.name = b.Defs.name && Expr.equal a.Defs.body b.Defs.body)
       (Defs.defs p.Parser.defs) (Defs.defs p'.Parser.defs));
  Alcotest.(check bool) "query survives" true
    (match p.Parser.query, p'.Parser.query with
    | Some a, Some b -> Expr.equal a b
    | _ -> false)

(* Every literal kind prints and parses back; a symbol spelled like a
   reserved word is refused, by name. *)
let test_printer_rejects_unprintable () =
  let lit = Expr.lit [ Value.bool true; Value.str "a\"b"; Value.cstr "f" []; Value.sym "f" ] in
  Alcotest.(check string) "printed" {|{"a\"b", true, f, f()}|} (Expr.to_string lit);
  Alcotest.(check bool) "round trip" true
    (match Parser.parse_expr (Expr.to_string lit) with
    | Ok e -> Expr.equal e lit
    | Error _ -> false);
  match Expr.to_string (Expr.lit [ Value.sym "sel" ]) with
  | s -> Alcotest.failf "printed a reserved word: %s" s
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("names sel: " ^ msg) true
      (String.starts_with ~prefix:{|"sel"|} msg)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
      Alcotest.test_case "program print/parse round trip" `Quick test_program_roundtrip;
      Alcotest.test_case "printer rejects unprintable" `Quick test_printer_rejects_unprintable;
    ]

(* Incremental view maintenance: after any sequence of update batches,
   the resident engines agree byte-for-byte with from-scratch evaluation
   on the final database — for the algebra evaluator (Eval), the
   three-valued recursive evaluator (Rec_eval), and the Datalog engines. *)

open Recalg
open Algebra
module I = Incremental

let value = Alcotest.testable Value.pp Value.equal
let vp a b = Value.pair (Value.sym a) (Value.sym b)

let edge_db edges =
  Db.of_list [ ("edge", List.map (fun (a, b) -> vp a b) edges) ]

let no_defs = Defs.make []

let tc_expr =
  (* IFP x. edge ∪ (edge ; x) — transitive closure. *)
  Expr.ifp "x" (Expr.union (Expr.rel "edge") (Tgen.compose_expr (Expr.rel "edge") (Expr.rel "x")))

let scratch db e = Eval.eval no_defs db e

(* ------------------------------------------------------------------ *)
(* Unit tests: the three IFP maintenance regimes on transitive closure. *)

let test_tc_insert () =
  let eng = I.init no_defs (edge_db [ ("a", "b"); ("c", "d") ]) tc_expr in
  let u = I.Update.(insert "edge" (vp "b" "c") empty) in
  let got = I.update eng u in
  Alcotest.check value "extension = scratch" (scratch (I.db eng) tc_expr) got;
  Alcotest.(check bool) "bridge derived" true (Value.mem (vp "a" "d") got)

let test_tc_delete () =
  let eng =
    I.init no_defs (edge_db [ ("a", "b"); ("b", "c"); ("c", "d") ]) tc_expr
  in
  let u = I.Update.(delete "edge" (vp "b" "c") empty) in
  let got = I.update eng u in
  Alcotest.check value "DRed = scratch" (scratch (I.db eng) tc_expr) got;
  Alcotest.(check bool) "pair gone" false (Value.mem (vp "a" "d") got)

let test_tc_mixed_batch () =
  let eng = I.init no_defs (edge_db [ ("a", "b"); ("b", "c") ]) tc_expr in
  let u =
    I.Update.(
      empty |> delete "edge" (vp "b" "c") |> insert "edge" (vp "b" "d")
      |> insert "edge" (vp "d" "a"))
  in
  let got = I.update eng u in
  Alcotest.check value "mixed = scratch" (scratch (I.db eng) tc_expr) got

let test_noop_batch () =
  let eng = I.init no_defs (edge_db [ ("a", "b") ]) tc_expr in
  let before = I.value eng in
  let u =
    I.Update.(
      empty
      |> insert "edge" (vp "a" "b") (* already present *)
      |> delete "edge" (vp "c" "d") (* absent *)
      |> insert "edge" (vp "e" "f")
      |> delete "edge" (vp "e" "f") (* cancels in the batch *))
  in
  let got = I.update eng u in
  Alcotest.check value "no-op batch keeps the value" before got

(* A non-monotone fixpoint body (the variable under a Diff right side):
   the engine must fall back to recompute and still agree with scratch. *)
let test_nonpositive_fallback () =
  let body =
    Expr.union (Expr.rel "edge")
      (Expr.diff (Expr.lit [ vp "a" "a"; vp "b" "b" ]) (Expr.rel "x"))
  in
  let e = Expr.ifp "x" body in
  let eng = I.init no_defs (edge_db [ ("a", "b") ]) e in
  let u = I.Update.(delete "edge" (vp "a" "b") empty) in
  let got = I.update eng u in
  Alcotest.check value "fallback = scratch" (scratch (I.db eng) e) got

(* MAP with colliding sources: deleting one source must keep the image
   alive while the other remains — the resident multiset image at work. *)
let test_map_multiset_image () =
  let e = Expr.pi 1 (Expr.rel "edge") in
  let eng = I.init no_defs (edge_db [ ("a", "b"); ("a", "c") ]) e in
  let u = I.Update.(delete "edge" (vp "a" "b") empty) in
  let got = I.update eng u in
  Alcotest.(check bool) "image survives" true (Value.mem (Value.sym "a") got);
  Alcotest.check value "map = scratch" (scratch (I.db eng) e) got;
  let u2 = I.Update.(delete "edge" (vp "a" "c") empty) in
  let got2 = I.update eng u2 in
  Alcotest.(check bool) "image dies with last source" false
    (Value.mem (Value.sym "a") got2)

let test_undefined_relation () =
  Alcotest.check_raises "missing relation"
    (I.Undefined_relation "edge") (fun () ->
      ignore (I.init no_defs Db.empty tc_expr))

(* ------------------------------------------------------------------ *)
(* QCheck: random update sequences against random queries.              *)

(* A sequence of batches; each batch is a list of signed edges over the
   shared node universe. *)
let batches_gen =
  QCheck.Gen.(
    let edge = pair (oneofl Tgen.node_names) (oneofl Tgen.node_names) in
    list_size (int_range 1 4) (list_size (int_range 1 4) (pair bool edge)))

let print_batches bs =
  String.concat "; "
    (List.map
       (fun b ->
         String.concat ","
           (List.map
              (fun (ins, (a, b)) -> (if ins then "+" else "-") ^ a ^ b)
              b))
       bs)

let batch_update ops =
  List.fold_left
    (fun u (ins, (a, b)) ->
      if ins then I.Update.insert "edge" (vp a b) u
      else I.Update.delete "edge" (vp a b) u)
    I.Update.empty ops

let ifp_instance_arb =
  QCheck.make
    ~print:(fun (body, g, bs) ->
      Expr.to_string body ^ " | "
      ^ String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) g)
      ^ " | " ^ print_batches bs)
    QCheck.Gen.(
      triple Tgen.ifp_body_gen (Tgen.graph_gen ~max_nodes:4 ~max_edges:6 ())
        batches_gen)

(* The tentpole property: incremental(updates) ≡ from_scratch(final EDB),
   byte-identically, for random recursive queries — including bodies that
   use "edge" negatively, which must take the recompute fallback. *)
let prop_ifp_incremental_equals_scratch =
  QCheck.Test.make ~name:"incremental IFP ≡ from-scratch (random updates)"
    ~count:(Tgen.qcount 150) ifp_instance_arb (fun (body, g, bs) ->
      let e = Expr.ifp "x" body in
      let db0 = edge_db g in
      let eng = I.init no_defs db0 e in
      List.for_all
        (fun ops ->
          let got = I.update eng (batch_update ops) in
          Value.equal got (scratch (I.db eng) e))
        bs)

(* Non-recursive operator trees over d1/d2 with updates hitting both
   relations: exercises the Z-set lifts of union, diff, product, select
   and map (with collisions) without any IFP in the way. *)
let flat_instance_arb =
  QCheck.make
    ~print:(fun (e, bs) ->
      Expr.to_string e ^ " | "
      ^ String.concat "; "
          (List.map
             (fun b ->
               String.concat ","
                 (List.map
                    (fun (ins, (r, n)) ->
                      (if ins then "+" else "-") ^ r ^ string_of_int n)
                    b))
             bs))
    QCheck.Gen.(
      pair Tgen.expr_gen
        (list_size (int_range 1 4)
           (list_size (int_range 1 5)
              (pair bool (pair (oneofl [ "d1"; "d2" ]) (int_range 0 6))))))

let prop_flat_incremental_equals_scratch =
  QCheck.Test.make ~name:"incremental operators ≡ from-scratch"
    ~count:(Tgen.qcount 300) flat_instance_arb (fun (e, bs) ->
      let eng = I.init no_defs Tgen.algebra_db e in
      List.for_all
        (fun ops ->
          let u =
            List.fold_left
              (fun u (ins, (r, n)) ->
                if ins then I.Update.insert r (Value.int n) u
                else I.Update.delete r (Value.int n) u)
              I.Update.empty ops
          in
          let got = I.update eng u in
          Value.equal got (scratch (I.db eng) e))
        bs)

(* ------------------------------------------------------------------ *)
(* The Rec engine: resident recursive solutions.                       *)

let tc_defs =
  Defs.make
    [
      Defs.constant "T"
        (Expr.union (Expr.rel "edge")
           (Tgen.compose_expr (Expr.rel "edge") (Expr.rel "T")));
    ]

let check_rec_matches_scratch eng =
  let sol = Rec_eval.solve tc_defs (I.Rec.db eng) in
  let vs = I.Rec.constant eng "T" and vs' = Rec_eval.constant sol "T" in
  Value.equal vs.Rec_eval.low vs'.Rec_eval.low
  && Value.equal vs.Rec_eval.high vs'.Rec_eval.high

let test_rec_insert () =
  let eng = I.Rec.init tc_defs (edge_db [ ("a", "b"); ("c", "d") ]) in
  I.Rec.update eng I.Update.(insert "edge" (vp "b" "c") empty);
  Alcotest.(check bool) "extend = scratch" true (check_rec_matches_scratch eng);
  let vs = I.Rec.constant eng "T" in
  Alcotest.(check bool) "bridge derived" true
    (Value.mem (vp "a" "d") vs.Rec_eval.low)

let test_rec_delete_falls_back () =
  let eng = I.Rec.init tc_defs (edge_db [ ("a", "b"); ("b", "c") ]) in
  I.Rec.update eng I.Update.(delete "edge" (vp "a" "b") empty);
  Alcotest.(check bool) "recompute = scratch" true
    (check_rec_matches_scratch eng)

let rec_batches_arb =
  QCheck.make
    ~print:(fun (g, bs) ->
      String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) g)
      ^ " | " ^ print_batches bs)
    QCheck.Gen.(pair (Tgen.graph_gen ~max_nodes:4 ~max_edges:6 ()) batches_gen)

let prop_rec_incremental_equals_scratch =
  QCheck.Test.make ~name:"incremental Rec ≡ from-scratch (random updates)"
    ~count:(Tgen.qcount 60) rec_batches_arb (fun (g, bs) ->
      let eng = I.Rec.init tc_defs (edge_db g) in
      List.for_all
        (fun ops ->
          I.Rec.update eng (batch_update ops);
          check_rec_matches_scratch eng)
        bs)

(* ------------------------------------------------------------------ *)
(* The Datalog layer: Seminaive materialization + the grounder's        *)
(* resident envelope.                                                   *)

module DI = Datalog.Incremental
module DU = Datalog.Edb.Update

let efact a b = [ Value.sym a; Value.sym b ]

let dl_batch ops =
  List.fold_left
    (fun u (ins, (a, b)) ->
      if ins then DU.insert "e" (efact a b) u else DU.delete "e" (efact a b) u)
    DU.empty ops

let dl_scratch program edb =
  match Datalog.Seminaive.stratified program edb with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let dl_tc_program =
  let x = Datalog.Dterm.var "X"
  and y = Datalog.Dterm.var "Y"
  and z = Datalog.Dterm.var "Z" in
  Datalog.Program.make
    [
      Datalog.Rule.make
        (Datalog.Literal.atom "path" [ x; y ])
        [ Datalog.Literal.pos "e" [ x; y ] ];
      Datalog.Rule.make
        (Datalog.Literal.atom "path" [ x; y ])
        [ Datalog.Literal.pos "e" [ x; z ]; Datalog.Literal.pos "path" [ z; y ] ];
    ]

let dl_init program edb =
  match DI.init program edb with
  | Ok t -> t
  | Error msg -> Alcotest.fail msg

let edb_equal = Alcotest.testable Datalog.Edb.pp Datalog.Edb.equal

let test_dl_insert () =
  let t = dl_init dl_tc_program (Tgen.e_edb [ ("a", "b"); ("c", "d") ]) in
  let got = DI.update t (dl_batch [ (true, ("b", "c")) ]) in
  Alcotest.check edb_equal "resume = scratch"
    (dl_scratch dl_tc_program (DI.edb t))
    got;
  Alcotest.(check bool) "bridge derived" true (DI.holds t "path" (efact "a" "d"))

let test_dl_delete () =
  let t =
    dl_init dl_tc_program (Tgen.e_edb [ ("a", "b"); ("b", "c"); ("c", "d") ])
  in
  let got = DI.update t (dl_batch [ (false, ("b", "c")) ]) in
  Alcotest.check edb_equal "DRed = scratch"
    (dl_scratch dl_tc_program (DI.edb t))
    got;
  Alcotest.(check bool) "pair gone" false (DI.holds t "path" (efact "a" "d"))

(* Per-batch fuel and closure size of a fixed delete/refill sequence on
   a TC DAG (3 chains of 16 nodes plus shortcuts): single-edge and
   three-edge deletes (DRed), their refills (extend) and a mixed batch
   and its reversal. Fuel is one unit per new fact plus one per batch
   and DRed round, so these numbers pin the derivation work of both
   regimes; how literals are joined must never move them. *)
let test_dl_pinned_fuel () =
  let program, _ =
    Datalog.Parser.parse_exn "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z)."
  in
  let fact (a, b) = [ Value.int a; Value.int b ] in
  let len = 16 in
  let edges =
    List.concat_map
      (fun c ->
        let base = c * len in
        List.init (len - 1) (fun i -> (base + i, base + i + 1))
        @ List.filter_map
            (fun i ->
              if i mod 5 = 0 && i + 3 < len then Some (base + i, base + i + 3)
              else None)
            (List.init len Fun.id))
      [ 0; 1; 2 ]
  in
  let edb =
    List.fold_left
      (fun edb e -> Datalog.Edb.add "e" (fact e) edb)
      Datalog.Edb.empty edges
  in
  let batch ops =
    List.fold_left
      (fun u (ins, e) ->
        if ins then DU.insert "e" (fact e) u else DU.delete "e" (fact e) u)
      DU.empty ops
  in
  let budget = 1_000_000 in
  let fuel = Limits.of_int budget in
  let left () = Option.value ~default:0 (Limits.remaining fuel) in
  let t =
    match DI.init ~fuel program edb with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  let size () = Datalog.Edb.cardinal (DI.result t) "t" in
  Alcotest.(check (pair int int)) "init: fuel, |t|" (360, 360)
    (budget - left (), size ());
  List.iter
    (fun (label, ops, expected) ->
      let before = left () in
      ignore (DI.update t (batch ops));
      Alcotest.(check (pair int int)) (label ^ ": fuel, |t|") expected
        (before - left (), size ()))
    [ ("delete 1", [ (false, (5, 6)) ], (55, 348));
      ("refill 1", [ (true, (5, 6)) ], (13, 360));
      ( "delete 3",
        [ (false, (1, 2)); (false, (20, 21)); (false, (35, 38)) ],
        (19, 290) );
      ( "refill 3",
        [ (true, (1, 2)); (true, (20, 21)); (true, (35, 38)) ],
        (71, 360) );
      ("mixed", [ (false, (10, 11)); (true, (10, 30)) ], (65, 360));
      ("mixed reverted", [ (true, (10, 11)); (false, (10, 30)) ], (32, 360)) ];
  Alcotest.check edb_equal "final = scratch" (dl_scratch program (DI.edb t))
    (DI.result t)

let test_dl_negation_recompute () =
  (* Stratified negation: a deletion *grows* iso — must take the
     recompute path and still agree with scratch. *)
  let x = Datalog.Dterm.var "X" and y = Datalog.Dterm.var "Y" in
  let program =
    Datalog.Program.make
      [
        Datalog.Rule.make
          (Datalog.Literal.atom "t" [ x ])
          [ Datalog.Literal.pos "e" [ x; y ] ];
        Datalog.Rule.make
          (Datalog.Literal.atom "iso" [ x ])
          [ Datalog.Literal.pos "n" [ x ]; Datalog.Literal.neg "t" [ x ] ];
      ]
  in
  let edb =
    Datalog.Edb.add "n" [ Value.sym "a" ]
      (Datalog.Edb.add "n" [ Value.sym "b" ] (Tgen.e_edb [ ("a", "b") ]))
  in
  let t = dl_init program edb in
  Alcotest.(check bool) "a connected" false (DI.holds t "iso" [ Value.sym "a" ]);
  let got = DI.update t (dl_batch [ (false, ("a", "b")) ]) in
  Alcotest.check edb_equal "recompute = scratch"
    (dl_scratch program (DI.edb t))
    got;
  Alcotest.(check bool) "a isolated now" true
    (DI.holds t "iso" [ Value.sym "a" ])

(* Random programs (p/q/r over e, negation allowed — non-stratified ones
   are skipped at init) under random update sequences. *)
let dl_instance_arb =
  QCheck.make
    ~print:(fun (p, g, bs) ->
      Datalog.Program.to_string p ^ " | "
      ^ String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) g)
      ^ " | " ^ print_batches bs)
    QCheck.Gen.(
      triple Tgen.rand_program_gen
        (Tgen.graph_gen ~max_nodes:4 ~max_edges:6 ())
        batches_gen)

let prop_datalog_incremental_equals_scratch =
  QCheck.Test.make
    ~name:"incremental Datalog ≡ from-scratch (random updates)"
    ~count:(Tgen.qcount 150) dl_instance_arb (fun (program, g, bs) ->
      match DI.init program (Tgen.e_edb g) with
      | Error _ -> true (* not stratified: out of scope here *)
      | Ok t ->
        List.for_all
          (fun ops ->
            let got = DI.update t (dl_batch ops) in
            Datalog.Edb.equal got (dl_scratch program (DI.edb t)))
          bs)

(* The grounder's resident envelope, judged through the valid semantics:
   negation and non-stratified programs are fully in scope, and the
   comparison is interpretation-level (Interp.equal), insensitive to
   stale interned atoms. *)
let test_live_ground_retracts () =
  let live =
    Datalog.Run.Live.start ~semantics:`Valid dl_tc_program
      (Tgen.e_edb [ ("a", "b"); ("b", "c") ])
  in
  let i = Datalog.Run.Live.update live (dl_batch [ (false, ("a", "b")) ]) in
  Alcotest.(check bool) "path b c survives" true
    (Tvl.equal (Datalog.Interp.holds i "path" (efact "b" "c")) Tvl.True);
  Alcotest.(check bool) "path a c gone" false
    (Tvl.equal (Datalog.Interp.holds i "path" (efact "a" "c")) Tvl.True);
  Alcotest.(check bool) "= scratch" true
    (Datalog.Interp.equal i
       (Datalog.Run.valid dl_tc_program (Datalog.Run.Live.edb live)))

let prop_live_ground_equals_scratch =
  QCheck.Test.make
    ~name:"live grounding ≡ from-scratch (valid semantics, random updates)"
    ~count:(Tgen.qcount 60) dl_instance_arb (fun (program, g, bs) ->
      let live = Datalog.Run.Live.start ~semantics:`Valid program (Tgen.e_edb g) in
      List.for_all
        (fun ops ->
          let i = Datalog.Run.Live.update live (dl_batch ops) in
          Datalog.Interp.equal i
            (Datalog.Run.valid program (Datalog.Run.Live.edb live)))
        bs)

let suite =
  [
    Alcotest.test_case "TC single insert (extension)" `Quick test_tc_insert;
    Alcotest.test_case "TC single delete (DRed)" `Quick test_tc_delete;
    Alcotest.test_case "TC mixed batch" `Quick test_tc_mixed_batch;
    Alcotest.test_case "no-op batches" `Quick test_noop_batch;
    Alcotest.test_case "non-positive body falls back" `Quick
      test_nonpositive_fallback;
    Alcotest.test_case "MAP keeps a multiset image" `Quick
      test_map_multiset_image;
    Alcotest.test_case "undefined relation" `Quick test_undefined_relation;
    QCheck_alcotest.to_alcotest prop_ifp_incremental_equals_scratch;
    QCheck_alcotest.to_alcotest prop_flat_incremental_equals_scratch;
    Alcotest.test_case "Rec insert extends" `Quick test_rec_insert;
    Alcotest.test_case "Rec delete recomputes" `Quick
      test_rec_delete_falls_back;
    QCheck_alcotest.to_alcotest prop_rec_incremental_equals_scratch;
    Alcotest.test_case "Datalog insert resumes" `Quick test_dl_insert;
    Alcotest.test_case "Datalog delete runs DRed" `Quick test_dl_delete;
    Alcotest.test_case "Datalog negation recomputes" `Quick
      test_dl_negation_recompute;
    Alcotest.test_case "Datalog pinned fuel over delete/refill" `Quick
      test_dl_pinned_fuel;
    QCheck_alcotest.to_alcotest prop_datalog_incremental_equals_scratch;
    Alcotest.test_case "live grounding retracts" `Quick
      test_live_ground_retracts;
    QCheck_alcotest.to_alcotest prop_live_ground_equals_scratch;
  ]

(* Program/Edb/Interp/Grounder utility tests. *)

open Recalg
open Datalog

let vi = Value.int
let vs = Value.sym

let parse = Parser.parse_exn

let test_program_pred_classification () =
  let program, _ = parse "p(X) :- e(X, Y), not q(Y). q(X) :- e(X, X)." in
  Alcotest.(check (list string)) "idb" [ "p"; "q" ] (Program.idb_preds program);
  Alcotest.(check (list string)) "edb" [ "e" ] (Program.edb_preds program);
  Alcotest.(check (list string)) "all" [ "p"; "e"; "q" ] (Program.all_preds program)

let test_program_dependencies () =
  let program, _ = parse "p(X) :- e(X, Y), not q(Y)." in
  let deps = Program.dependencies program in
  Alcotest.(check bool) "pos dep" true (List.mem ("p", "e", `Pos) deps);
  Alcotest.(check bool) "neg dep" true (List.mem ("p", "q", `Neg) deps)

let test_program_constants_functions () =
  let program, _ = parse "p(X) :- e(X, 7), X = add(Y, 1), q(s(Y))." in
  Alcotest.(check bool) "constant 7" true
    (List.exists (Value.equal (vi 7)) (Program.constants program));
  let fns = Program.function_symbols program in
  Alcotest.(check bool) "add/2" true (List.mem ("add", 2) fns);
  Alcotest.(check bool) "s/1" true (List.mem ("s", 1) fns)

let test_program_union () =
  let p1, _ = parse "p(X) :- e(X)." in
  let p2, _ = parse "q(X) :- e(X)." in
  let u = Program.union p1 p2 in
  Alcotest.(check int) "rules" 2 (List.length u.Program.rules)

let test_rules_for () =
  let program, _ = parse "p(X) :- e(X). p(X) :- f(X). q(X) :- e(X)." in
  Alcotest.(check int) "two p rules" 2 (List.length (Program.rules_for program "p"));
  Alcotest.(check int) "no r rules" 0 (List.length (Program.rules_for program "r"))

let test_edb_ops () =
  let edb =
    Edb.of_list [ ("e", [ [ vi 1; vi 2 ]; [ vi 2; vi 3 ] ]); ("d", [ [ vs "a" ] ]) ]
  in
  Alcotest.(check int) "cardinal" 2 (Edb.cardinal edb "e");
  Alcotest.(check bool) "mem" true (Edb.mem edb "e" [ vi 1; vi 2 ]);
  Alcotest.(check bool) "not mem" false (Edb.mem edb "e" [ vi 9; vi 9 ]);
  Alcotest.(check (list string)) "preds" [ "d"; "e" ] (Edb.preds edb);
  let edb2 = Edb.add "e" [ vi 1; vi 2 ] edb in
  Alcotest.(check bool) "idempotent add" true (Edb.equal edb edb2);
  let union = Edb.union edb (Edb.of_list [ ("e", [ [ vi 5; vi 6 ] ]) ]) in
  Alcotest.(check int) "union" 3 (Edb.cardinal union "e")

let test_interp_false_tuples () =
  let program, edb = parse "move(a,b). win(X) :- move(X,Y), not win(Y)." in
  let interp = Run.valid program edb in
  (* win(b) appears in the grounded base and is false. *)
  Alcotest.(check bool) "win(b) reported false" true
    (List.mem [ vs "b" ] (Interp.false_tuples interp "win"));
  Alcotest.(check bool) "preds include win" true (List.mem "win" (Interp.preds interp));
  let edb' = Interp.to_edb interp in
  Alcotest.(check bool) "to_edb has winner" true (Edb.mem edb' "win" [ vs "a" ])

let test_interp_counts () =
  let program, edb = parse "move(a,a). win(X) :- move(X,Y), not win(Y)." in
  let interp = Run.valid program edb in
  Alcotest.(check int) "one true (the move)" 1 (Interp.count_true interp);
  Alcotest.(check int) "one undef" 1 (Interp.count_undef interp);
  Alcotest.(check bool) "not total" false (Interp.is_total interp)

let test_grounder_strategies_agree () =
  let reach =
    "reach(0). reach(Y) :- reach(X), edge(X, Y)."
    ^ String.concat "" (List.init 30 (fun i -> Printf.sprintf " edge(%d, %d)." i (i + 1)))
  in
  List.iter
    (fun src ->
      let program, edb = parse src in
      let a = Grounder.ground ~strategy:`Seminaive program edb in
      let b = Grounder.ground ~strategy:`Naive program edb in
      Alcotest.(check int) "same atoms" (Propgm.n_atoms a) (Propgm.n_atoms b);
      Alcotest.(check int) "same rules" (Array.length a.Propgm.rules)
        (Array.length b.Propgm.rules);
      (* And the same valid model. *)
      Alcotest.(check bool) "same model" true
        (Interp.equal (Valid.solve a) (Valid.solve b)))
    [ "e(1,2). e(2,3). e(3,1). t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z).";
      reach ]

let prop_grounder_strategies_agree =
  QCheck.Test.make ~name:"naive and seminaive grounding give equal models" ~count:60
    Tgen.rand_instance_arb (fun (program, edges) ->
      let edb = Tgen.e_edb edges in
      let a = Grounder.ground ~strategy:`Seminaive program edb in
      let b = Grounder.ground ~strategy:`Naive program edb in
      Interp.equal (Valid.solve a) (Valid.solve b))

(* The interpretation readers take one predicate's range of a fact set
   ordered by predicate first. The whole-set filters they replaced are
   the reference, over random interpretations of up to 50 predicates,
   whose names ("p1" < "p10" < "p2") sort apart from their numbers. *)
let prop_interp_readers_are_filters =
  let gen =
    QCheck.Gen.(
      let* npreds = int_range 1 50 in
      let fact =
        pair
          (map (Printf.sprintf "p%d") (int_bound (npreds - 1)))
          (list_size (int_bound 2) (map vi (int_bound 3)))
      in
      (* Each fact is true (0), undefined (1) or false (2). *)
      pair (list_size (int_bound 150) (pair fact (int_bound 2))) (return npreds))
  in
  let print (marked, _) =
    String.concat " "
      (List.map
         (fun (f, m) -> Fmt.str "%a:%d" Propgm.pp_fact f m)
         marked)
  in
  QCheck.Test.make ~name:"interp readers = whole-set filters"
    ~count:(Tgen.qcount 200) (QCheck.make ~print gen) (fun (marked, npreds) ->
      let atoms = Interner.create ~hash:Propgm.fact_hash ~equal:Propgm.fact_equal () in
      let marks = Hashtbl.create 64 in
      List.iter
        (fun (f, m) ->
          let id = Interner.intern atoms f in
          if not (Hashtbl.mem marks id) then Hashtbl.add marks id m)
        marked;
      let pg = { Propgm.atoms; rules = [||] } in
      let n = Propgm.n_atoms pg in
      let true_ = Bitset.create n and undef = Bitset.create n in
      Hashtbl.iter
        (fun id m ->
          if m = 0 then Bitset.set true_ id else if m = 1 then Bitset.set undef id)
        marks;
      let interp = Interp.make pg ~true_ ~undef in
      let sorted bits =
        List.sort_uniq
          (fun (p, a) (q, b) ->
            let c = String.compare p q in
            if c <> 0 then c else List.compare Value.compare a b)
          (List.map (Propgm.fact_of_id pg) (Bitset.to_list bits))
      in
      let all = Bitset.create n in
      for i = 0 to n - 1 do Bitset.set all i done;
      let base = sorted all and t = sorted true_ and u = sorted undef in
      let tuples_of set pred =
        List.filter_map (fun (p, args) -> if String.equal p pred then Some args else None) set
      in
      let false_tuples pred =
        List.filter_map
          (fun ((p, args) as f) ->
            if String.equal p pred && (not (List.mem f t)) && not (List.mem f u)
            then Some args
            else None)
          base
      in
      let preds =
        List.rev
          (List.fold_left
             (fun acc (p, _) -> if List.mem p acc then acc else p :: acc)
             [] base)
      in
      Interp.preds interp = preds
      && List.for_all
           (fun pred ->
             Interp.true_tuples interp pred = tuples_of t pred
             && Interp.undef_tuples interp pred = tuples_of u pred
             && Interp.false_tuples interp pred = false_tuples pred)
           ("p" :: "q" :: List.init (npreds + 1) (Printf.sprintf "p%d")))

let test_subst_ops () =
  let s = Subst.bind "X" (vi 1) Subst.empty in
  Alcotest.(check bool) "find" true (Subst.find "X" s = Some (vi 1));
  Alcotest.(check bool) "consistent rebind" true
    (Subst.bind_consistent "X" (vi 1) s <> None);
  Alcotest.(check bool) "inconsistent rebind" true
    (Subst.bind_consistent "X" (vi 2) s = None);
  Alcotest.(check bool) "mem" true (Subst.mem "X" s);
  Alcotest.(check int) "bindings" 1 (List.length (Subst.bindings s))

let test_rule_utilities () =
  let program, _ = parse "p(X, Z) :- e(X, Y), Z = add(X, Y), not q(Y)." in
  match program.Program.rules with
  | [ r ] ->
    Alcotest.(check (list string)) "vars in order" [ "X"; "Z"; "Y" ] (Rule.vars r);
    Alcotest.(check bool) "not a fact" false (Rule.is_fact r);
    let renamed = Rule.rename (fun v -> v ^ "0") r in
    Alcotest.(check (list string)) "renamed" [ "X0"; "Z0"; "Y0" ] (Rule.vars renamed)
  | _ -> Alcotest.fail "expected one rule"

let suite =
  [
    Alcotest.test_case "pred classification" `Quick test_program_pred_classification;
    Alcotest.test_case "dependencies" `Quick test_program_dependencies;
    Alcotest.test_case "constants/functions" `Quick test_program_constants_functions;
    Alcotest.test_case "program union" `Quick test_program_union;
    Alcotest.test_case "rules_for" `Quick test_rules_for;
    Alcotest.test_case "edb operations" `Quick test_edb_ops;
    Alcotest.test_case "interp false tuples" `Quick test_interp_false_tuples;
    Alcotest.test_case "interp counts" `Quick test_interp_counts;
    Alcotest.test_case "grounder strategies agree" `Quick test_grounder_strategies_agree;
    Alcotest.test_case "subst operations" `Quick test_subst_ops;
    Alcotest.test_case "rule utilities" `Quick test_rule_utilities;
    QCheck_alcotest.to_alcotest prop_grounder_strategies_agree;
    QCheck_alcotest.to_alcotest prop_interp_readers_are_filters;
  ]

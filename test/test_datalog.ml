(* Deductive engine tests: terms, parsing, safety (Definition 4.1),
   stratification, grounding, and the five semantics — including the
   paper's own Example 4 divergence between inflationary and valid. *)

open Recalg
open Datalog

let check_tvl = Alcotest.testable Tvl.pp Tvl.equal
let vs = Value.sym
let vi = Value.int

let parse src = Parser.parse_exn src

(* --- Dterm --- *)

let test_dterm_eval () =
  let b = Builtins.default in
  let subst = Subst.bind "X" (vi 4) Subst.empty in
  Alcotest.(check bool) "interpreted" true
    (Dterm.eval b subst (Dterm.app "add" [ Dterm.var "X"; Dterm.int 1 ]) = Some (vi 5));
  Alcotest.(check bool) "constructor" true
    (Dterm.eval b subst (Dterm.app "s" [ Dterm.var "X" ])
    = Some (Value.cstr "s" [ vi 4 ]));
  Alcotest.(check bool) "unbound" true
    (Dterm.eval b Subst.empty (Dterm.var "X") = None)

let test_dterm_match () =
  let b = Builtins.default in
  (* Destructuring a constructor value binds inner variables. *)
  let v = Value.cstr "s" [ Value.cstr "s" [ vi 0 ] ] in
  let pattern = Dterm.app "s" [ Dterm.var "N" ] in
  (match Dterm.match_value b pattern v Subst.empty with
  | Some subst ->
    Alcotest.(check bool) "bound inner" true
      (Subst.find "N" subst = Some (Value.cstr "s" [ vi 0 ]))
  | None -> Alcotest.fail "expected match");
  (* Interpreted functions cannot be inverted: the term must be ground. *)
  Alcotest.(check bool) "cannot invert add" true
    (Dterm.match_value b (Dterm.app "add" [ Dterm.var "N"; Dterm.int 1 ]) (vi 5)
       Subst.empty
    = None)

let test_dterm_extractable () =
  let b = Builtins.default in
  Alcotest.(check (list string)) "under constructor" [ "X" ]
    (Dterm.extractable_vars b (Dterm.app "s" [ Dterm.var "X" ]));
  Alcotest.(check (list string)) "under interpreted" []
    (Dterm.extractable_vars b (Dterm.app "add" [ Dterm.var "X"; Dterm.int 1 ]))

(* --- Parser --- *)

let test_parse_facts_split () =
  let program, edb = parse "e(1, 2). e(2, 3). p(X) :- e(X, Y)." in
  Alcotest.(check int) "rules" 1 (List.length program.Program.rules);
  Alcotest.(check int) "edb tuples" 2 (Edb.cardinal edb "e")

let test_parse_literals () =
  let program, _ =
    parse "p(X) :- e(X, Y), not q(Y), X != Y, Z = add(X, 1), r(Z)."
  in
  match program.Program.rules with
  | [ r ] -> Alcotest.(check int) "body literals" 5 (List.length r.Rule.body)
  | _ -> Alcotest.fail "expected one rule"

let test_parse_function_terms () =
  let program, _ = parse "p(s(X)) :- q(X)." in
  match program.Program.rules with
  | [ r ] ->
    Alcotest.(check bool) "constructor head" true
      (r.Rule.head.Literal.args = [ Dterm.app "s" [ Dterm.var "X" ] ])
  | _ -> Alcotest.fail "expected one rule"

let test_parse_errors () =
  Alcotest.(check bool) "unterminated" true
    (Result.is_error (Parser.parse "p(X"));
  Alcotest.(check bool) "garbage" true (Result.is_error (Parser.parse "p(X) :- ."));
  Alcotest.(check bool) "missing period" true (Result.is_error (Parser.parse "p(a)"))

let test_parse_comments_strings () =
  let program, edb = parse "% a comment\nname(\"O'Hara\"). p(X) :- name(X). % tail" in
  Alcotest.(check int) "string fact" 1 (Edb.cardinal edb "name");
  Alcotest.(check int) "rule" 1 (List.length program.Program.rules)

let test_parse_print_roundtrip () =
  let src =
    "win(X) :- move(X, Y), not win(Y).\n\
     even(Y) :- even(X), Y = add(X, 2), bound(B), leq(Y, B) = true."
  in
  let program, _ = parse src in
  let printed = Program.to_string program in
  let program2, _ = parse printed in
  Alcotest.(check bool) "round trip" true
    (List.equal Rule.equal program.Program.rules program2.Program.rules)

(* The nullary constructor f() and the symbol f print apart, and each
   parses back to itself under both parsers. *)
let test_nullary_constructor_prints () =
  let cstr = Value.cstr "f" [] and sym = vs "f" in
  Alcotest.(check bool) "printed apart" false
    (String.equal (Value.to_string cstr) (Value.to_string sym));
  List.iter
    (fun v ->
      let s = Value.to_string v in
      let _, edb = parse (Fmt.str "p(%s)." s) in
      Alcotest.(check bool) ("datalog reads " ^ s) true
        (List.equal (List.equal Value.equal) (Edb.tuples edb "p") [ [ v ] ]);
      Alcotest.(check bool) ("algebra reads " ^ s) true
        (match Algebra.Parser.parse_expr ("{" ^ s ^ "}") with
        | Ok (Algebra.Expr.Lit l) -> Value.equal l (Value.set [ v ])
        | Ok _ | Error _ -> false))
    [ cstr; sym ]

(* --- Safety (Definition 4.1) --- *)

let test_safety_positive () =
  let program, _ = parse "p(X) :- e(X, Y)." in
  Alcotest.(check bool) "safe" true (Safety.is_safe program)

let test_safety_negative_only_var () =
  (* A variable only in a negative literal is unrestricted. *)
  let program, _ = parse "p(X) :- not q(X)." in
  Alcotest.(check bool) "unsafe" false (Safety.is_safe program)

let test_safety_head_var () =
  let program, _ = parse "p(X, Z) :- e(X, Y)." in
  Alcotest.(check bool) "unsafe head" false (Safety.is_safe program)

let test_safety_eq_binding () =
  (* y = exp with exp's variables restricted restricts y (rule 4). *)
  let program, _ = parse "p(Z) :- e(X, Y), Z = add(X, Y)." in
  Alcotest.(check bool) "safe via equality" true (Safety.is_safe program);
  (* but not when exp itself is unrestricted *)
  let program2, _ = parse "p(Z) :- e(X, Y), Z = add(W, 1)." in
  Alcotest.(check bool) "unsafe via equality" false (Safety.is_safe program2)

let test_safety_ground_eq () =
  (* x = ground-expression is a range formula (basis b). *)
  let program, _ = parse "p(X) :- X = add(1, 2)." in
  Alcotest.(check bool) "safe ground eq" true (Safety.is_safe program)

let test_safety_constructor_extraction () =
  (* Variables under free constructors in a positive atom are restricted. *)
  let program, _ = parse "p(X) :- e(s(X), Y)." in
  Alcotest.(check bool) "safe by destructuring" true (Safety.is_safe program);
  (* Variables under interpreted functions are not. *)
  let program2, _ = parse "p(X) :- e(add(X, 1), Y)." in
  Alcotest.(check bool) "unsafe under interpreted" false (Safety.is_safe program2)

let test_safety_neq () =
  let program, _ = parse "p(X) :- e(X, Y), X != Y." in
  Alcotest.(check bool) "safe neq" true (Safety.is_safe program)

let test_evaluation_order () =
  (* The order rearranges so the equality is evaluable. *)
  let program, _ = parse "p(Z) :- Z = add(X, Y), e(X, Y)." in
  Alcotest.(check bool) "still safe" true (Safety.is_safe program);
  match program.Program.rules with
  | [ r ] -> (
    match Safety.evaluation_order program.Program.builtins r.Rule.body with
    | Ok (first :: _) ->
      Alcotest.(check bool) "positive atom first" true (Literal.is_positive first)
    | Ok [] -> Alcotest.fail "empty order"
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "expected one rule"

(* --- Stratification --- *)

let test_stratified_yes () =
  let program, _ = parse "t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). s(X) :- d(X), not t(X, X)." in
  Alcotest.(check bool) "stratified" true (Stratify.is_stratified program)

let test_stratified_no () =
  let program, _ = parse "win(X) :- move(X, Y), not win(Y)." in
  Alcotest.(check bool) "not stratified" false (Stratify.is_stratified program);
  (* The reported edge lies on a cycle: [h] reads [a] negatively, but
     only [a]'s edge to itself is on one. *)
  let program, _ = parse "a :- not a. h :- not a." in
  match Stratify.analyse program with
  | Stratify.Not_stratified (h, q) ->
    Alcotest.(check (pair string string)) "edge on the cycle" ("a", "a") (h, q)
  | Stratify.Stratified _ -> Alcotest.fail "expected Not_stratified"

let test_strata_order () =
  let program, _ = parse "a(X) :- e(X). b(X) :- e(X), not a(X). c(X) :- e(X), not b(X)." in
  match Stratify.strata program with
  | Ok groups ->
    let stratum_of p =
      let rec find i gs =
        match gs with
        | [] -> -1
        | g :: rest -> if List.mem p g then i else find (i + 1) rest
      in
      find 0 groups
    in
    Alcotest.(check bool) "a before b" true (stratum_of "a" < stratum_of "b");
    Alcotest.(check bool) "b before c" true (stratum_of "b" < stratum_of "c")
  | Error e -> Alcotest.fail e

let check_schedule =
  Alcotest.(check (result (list (list (list string))) string))

let test_components_edges () =
  (* Edge cases of the component split the stratified evaluators fan
     out over. Empty program: nothing is derived, so no stratum. *)
  let schedule src = Stratify.schedule (fst (parse src)) in
  check_schedule "empty program" (Ok []) (schedule "");
  (* Self-loop-only rules: a self-edge connects a predicate to nothing
     else, so the split is singletons, in program order. *)
  check_schedule "self-loops: singletons" (Ok [ [ [ "p" ]; [ "q" ] ] ])
    (schedule "p(X) :- p(X). q(X) :- q(X).");
  check_schedule "order follows the program" (Ok [ [ [ "q" ]; [ "p" ] ] ])
    (schedule "q(X) :- q(X). p(X) :- p(X).");
  (* A chain of dependencies spans all its derived predicates: one
     component, though the edges are directed head -> body and taken
     undirected. The extensional [d] is in no component. *)
  check_schedule "single component spans all" (Ok [ [ [ "a"; "b"; "c" ] ] ])
    (schedule "a(X) :- b(X). b(X) :- c(X). c(X) :- d(X).");
  (* A negated edge puts its ends in different strata, which severs the
     chain there. *)
  check_schedule "negation severs" (Ok [ [ [ "b"; "c" ] ]; [ [ "a" ] ] ])
    (schedule "a(X) :- d(X), not b(X). b(X) :- c(X). c(X) :- d(X).");
  (* Components that read one extensional relation stay apart. *)
  check_schedule "a shared base relation joins nothing"
    (Ok [ [ [ "p" ]; [ "q" ] ] ])
    (schedule "p(X) :- e(X). q(X) :- e(X).")

(* --- Grounding --- *)

let test_grounding_size () =
  let program, edb = parse "e(1,2). e(2,3). t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z)." in
  let pg = Grounder.ground program edb in
  (* atoms: 2 e-facts + 3 t-facts *)
  Alcotest.(check int) "atoms" 5 (Propgm.n_atoms pg)

let test_grounding_negative_atoms_interned () =
  let program, edb = parse "e(1). p(X) :- e(X), not q(X)." in
  let pg = Grounder.ground program edb in
  Alcotest.(check bool) "q(1) interned" true
    (Propgm.id_of_fact pg ("q", [ vi 1 ]) <> None)

let test_grounding_diverges () =
  (* Unbounded value generation must hit the fuel wall, not hang. *)
  let program, edb = parse "n(0). n(Y) :- n(X), Y = add(X, 1)." in
  Alcotest.(check bool) "diverges" true
    (try
       ignore (Grounder.ground ~fuel:(Limits.of_int 1000) program edb);
       false
     with Limits.Diverged _ -> true)

(* A semi-naive round fires a body position only when its store has a
   delta, so each closing round of a left-linear chain probes a constant
   number of index buckets. Re-firing the [edge] position, whose delta is
   empty after the first round, enumerates all of [reach] each round:
   about n^2/2 index misses. *)
let test_grounding_linear () =
  let n = 300 in
  let edges = List.init n (fun i -> Printf.sprintf "edge(%d, %d)." i (i + 1)) in
  let program, edb =
    parse (String.concat " " ("reach(0). reach(Y) :- reach(X), edge(X, Y)." :: edges))
  in
  Obs.Metrics.reset ();
  let pg = Obs.Metrics.with_collecting (fun () -> Grounder.ground program edb) in
  let sn = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  let probes =
    List.fold_left
      (fun acc c -> acc + Obs.Metrics.counter_total sn c)
      0
      [ "ground/index_hit"; "ground/index_miss"; "ground/scan" ]
  in
  Alcotest.(check int) "atoms" ((2 * n) + 1) (Propgm.n_atoms pg);
  Alcotest.(check bool)
    (Printf.sprintf "%d probes <= 4 per edge" probes)
    true
    (probes <= 4 * n)

let test_grounding_unsafe_rejected () =
  let program, edb = parse "p(X) :- not q(X)." in
  Alcotest.(check bool) "unsafe raises" true
    (try
       ignore (Grounder.ground program edb);
       false
     with Grounder.Unsafe _ -> true)

(* --- Semantics --- *)

let run_holds interp pred args = Interp.holds interp pred args

let test_valid_example4 () =
  (* The paper's Example 4: r(a). q(X) :- r(X), not q(X).
     Valid: q(a) undefined. Inflationary: q(a) true. *)
  let program, edb = parse "r(a). q(X) :- r(X), not q(X)." in
  Alcotest.check check_tvl "valid undef" Tvl.Undef
    (run_holds (Run.valid program edb) "q" [ vs "a" ]);
  Alcotest.check check_tvl "inflationary true" Tvl.True
    (run_holds (Run.inflationary program edb) "q" [ vs "a" ])

let test_valid_win_chain () =
  let program, edb = parse "move(a,b). move(b,c). win(X) :- move(X,Y), not win(Y)." in
  let interp = Run.valid program edb in
  Alcotest.check check_tvl "win(b)" Tvl.True (run_holds interp "win" [ vs "b" ]);
  Alcotest.check check_tvl "win(a)" Tvl.False (run_holds interp "win" [ vs "a" ]);
  Alcotest.check check_tvl "win(c)" Tvl.False (run_holds interp "win" [ vs "c" ])

let test_valid_win_cycle () =
  let program, edb = parse "move(a,a). win(X) :- move(X,Y), not win(Y)." in
  Alcotest.check check_tvl "self loop undefined" Tvl.Undef
    (run_holds (Run.valid program edb) "win" [ vs "a" ])

let test_valid_even_cycle_undefined () =
  let program, edb = parse "move(a,b). move(b,a). win(X) :- move(X,Y), not win(Y)." in
  let interp = Run.valid program edb in
  Alcotest.check check_tvl "win(a) undef" Tvl.Undef (run_holds interp "win" [ vs "a" ]);
  Alcotest.check check_tvl "win(b) undef" Tvl.Undef (run_holds interp "win" [ vs "b" ])

(* Facts print as single tokens, so line breaks fall only between them:
   [Interp.pp] puts one fact on each line of its [v] box. *)
let test_interp_pp_fact_per_line () =
  let program, edb =
    parse "move(a, b). move(b, c). move(c, d). win(X) :- move(X, Y), not win(Y)."
  in
  Alcotest.(check string) "one fact per line"
    "true: move(a, b)\nmove(b, c)\nmove(c, d)\nwin(a)\nwin(c)\nundef: "
    (Fmt.str "%a" Interp.pp (Run.valid program edb))

(* [Edb.pp] fills the facts into lines of the enclosing box and breaks
   only between them: no line ends inside a fact, and the text is the
   facts in order once newlines read as spaces. *)
let test_edb_pp_breaks_between_facts () =
  let facts = List.init 150 (fun i -> Fmt.str "e(%d, %d)." i (i + 1)) in
  let _, edb = parse (String.concat "\n" facts) in
  let text = Fmt.str "%a" Edb.pp edb in
  Alcotest.(check (list string)) "no line ends mid-fact" []
    (List.filter
       (fun line -> String.ends_with ~suffix:"," line)
       (String.split_on_char '\n' text));
  Alcotest.(check string) "facts in order" (String.concat " " facts ^ " ")
    (String.map (fun c -> if c = '\n' then ' ' else c) text)

let test_wellfounded_unfounded_set () =
  (* p :- q. q :- p. — an unfounded loop is false, not undefined. *)
  let program, edb = parse "p :- q. q :- p." in
  let interp = Run.wellfounded program edb in
  Alcotest.check check_tvl "p false" Tvl.False (run_holds interp "p" []);
  let valid = Run.valid program edb in
  Alcotest.check check_tvl "valid agrees" Tvl.False (run_holds valid "p" [])

let test_stable_two_models () =
  let program, edb = parse "p :- not q. q :- not p." in
  let models = Run.stable program edb in
  Alcotest.(check int) "two models" 2 (List.length models);
  List.iter
    (fun m ->
      let p = run_holds m "p" []
      and q = run_holds m "q" [] in
      Alcotest.(check bool) "exactly one holds" true
        ((p = Tvl.True) <> (q = Tvl.True)))
    models

let test_stable_none () =
  (* p :- not p. has no stable model. *)
  let program, edb = parse "p :- not p." in
  Alcotest.(check int) "no models" 0 (List.length (Run.stable program edb))

let test_stable_extends_wf () =
  let program, edb =
    parse "move(a,b). move(b,a). move(b,c). win(X) :- move(X,Y), not win(Y)."
  in
  let wf = Run.wellfounded program edb in
  let models = Run.stable program edb in
  Alcotest.(check bool) "at least one model" true (models <> []);
  List.iter
    (fun m ->
      List.iter
        (fun args ->
          Alcotest.check check_tvl "wf-true stays true" Tvl.True
            (run_holds m "win" args))
        (Interp.true_tuples wf "win"))
    models

let test_stratified_matches_valid () =
  let program, edb =
    parse
      "e(1,2). e(2,3). e(3,4). t(X,Y) :- e(X,Y). t(X,Z) :- e(X,Y), t(Y,Z). \
       nt(X) :- e(X, Y), not t(X, 4)."
  in
  let strat =
    match Run.stratified program edb with
    | Ok db -> db
    | Error e -> Alcotest.fail e
  in
  let valid = Run.valid program edb in
  List.iter
    (fun pred ->
      let a = Edb.tuples strat pred in
      let b = Interp.true_tuples valid pred in
      Alcotest.(check int) (pred ^ " same count") (List.length b) (List.length a);
      Alcotest.(check bool) (pred ^ " undef empty") true
        (Interp.undef_tuples valid pred = []))
    [ "t"; "nt" ]

let test_interpreted_functions_flow () =
  let program, edb = parse "d(1). d(2). big(X) :- d(Y), X = mul(Y, 10)." in
  let interp = Run.valid program edb in
  Alcotest.check check_tvl "computed" Tvl.True (run_holds interp "big" [ vi 20 ])

let test_constructor_recursion () =
  (* Structural recursion over Herbrand terms, bounded by the EDB. *)
  let program, edb = parse "num(s(s(s(zero)))). pred(X) :- num(s(X)). pred(X) :- pred(s(X))." in
  let interp = Run.valid program edb in
  Alcotest.check check_tvl "peels to zero" Tvl.True
    (run_holds interp "pred" [ vs "zero" ])

let test_neq_literal () =
  let program, edb = parse "e(1,1). e(1,2). p(X,Y) :- e(X,Y), X != Y." in
  let interp = Run.valid program edb in
  Alcotest.check check_tvl "kept" Tvl.True (run_holds interp "p" [ vi 1; vi 2 ]);
  Alcotest.check check_tvl "dropped" Tvl.False (run_holds interp "p" [ vi 1; vi 1 ])

let test_valid_iterations_reported () =
  let program, edb = parse "move(a,b). move(b,c). win(X) :- move(X,Y), not win(Y)." in
  let pg = Grounder.ground program edb in
  Alcotest.(check bool) "at least 2 rounds" true (Valid.iterations pg >= 2)

(* --- cross-semantics properties on random programs --- *)

let interp_of_valid (program, edges) = Run.valid program (Tgen.e_edb edges)

let prop_valid_equals_wellfounded =
  QCheck.Test.make ~name:"valid = well-founded on random programs" ~count:150
    Tgen.rand_instance_arb (fun (program, edges) ->
      let edb = Tgen.e_edb edges in
      Interp.equal (Run.valid program edb) (Run.wellfounded program edb))

let prop_stable_extends_wf =
  QCheck.Test.make ~name:"stable models extend the well-founded model" ~count:80
    Tgen.rand_instance_arb (fun (program, edges) ->
      let edb = Tgen.e_edb edges in
      let wf = Run.wellfounded program edb in
      let models = try Run.stable program edb with Limits.Diverged _ -> [] in
      List.for_all
        (fun m ->
          List.for_all
            (fun pred ->
              List.for_all
                (fun args -> Interp.holds m pred args = Tvl.True)
                (Interp.true_tuples wf pred))
            [ "p"; "q"; "r" ])
        models)

let prop_stratified_total =
  QCheck.Test.make ~name:"valid model total on stratified random programs" ~count:150
    Tgen.rand_instance_arb (fun (program, edges) ->
      QCheck.assume (Stratify.is_stratified program);
      let interp = interp_of_valid (program, edges) in
      Interp.is_total interp)

let negation_free program =
  List.for_all
    (fun (r : Rule.t) ->
      List.for_all
        (fun l ->
          match l with
          | Literal.Neg _ -> false
          | Literal.Pos _ | Literal.Eq _ | Literal.Neq _ -> true)
        r.Rule.body)
    program.Program.rules

let prop_negation_free_semantics_coincide =
  (* Without negation every semantics computes the minimal model. *)
  QCheck.Test.make ~name:"valid = inflationary = seminaive without negation"
    ~count:150 Tgen.rand_instance_arb (fun (program, edges) ->
      QCheck.assume (negation_free program);
      let edb = Tgen.e_edb edges in
      let v = Run.valid program edb in
      let inf = Run.inflationary program edb in
      let strat =
        match Run.stratified program edb with
        | Ok db -> db
        | Error e -> QCheck.Test.fail_report e
      in
      Interp.equal v inf
      && List.for_all
           (fun pred ->
             let a = List.sort compare (Interp.true_tuples v pred) in
             let b = List.sort compare (Edb.tuples strat pred) in
             a = b)
           (Program.idb_preds program))

(* Stratify.analyse against its definition: the least stratification,
   or a negative edge on a cycle. *)
let prop_stratify_least =
  QCheck.Test.make ~name:"stratify: least strata or a negative edge on a cycle"
    ~count:(Tgen.qcount 300) Tgen.rand_program_arb (fun program ->
      let preds = Program.all_preds program in
      let deps = Program.dependencies program in
      let rec reaches seen q h =
        q = h
        || (not (List.mem q seen))
           && List.exists
                (fun (p, r, _) -> p = q && reaches (q :: seen) r h)
                deps
      in
      match Stratify.analyse program with
      | Stratify.Not_stratified (h, q) ->
        List.mem (h, q, `Neg) deps && reaches [] q h
      | Stratify.Stratified groups ->
        let stratum q =
          let rec find i = function
            | [] -> -1
            | g :: rest -> if List.mem q g then i else find (i + 1) rest
          in
          find 0 groups
        in
        let need (_, q, pol) = stratum q + if pol = `Neg then 1 else 0 in
        List.for_all (fun ((h, _, _) as d) -> stratum h >= need d) deps
        && List.for_all
             (fun h ->
               stratum h = 0
               || List.exists
                    (fun ((p, _, _) as d) -> p = h && need d = stratum h)
                    deps)
             preds
        && List.for_all
             (fun g -> g <> [] && g = List.filter (fun q -> List.mem q g) preds)
             groups
        && List.sort compare (List.concat groups) = List.sort compare preds)

(* The component split as it was computed before the stratification
   pass produced it: for each stratum's derived predicates, the
   connected components of the whole program's dependency graph
   restricted to them (Tarjan over the symmetrised graph), ordered by
   first member. *)
let reference_components p preds =
  let names = Array.of_list preds in
  let n = Array.length names in
  let ids = Hashtbl.create 16 in
  Array.iteri (fun i name -> Hashtbl.replace ids name i) names;
  let adj = Array.make n [] in
  List.iter
    (fun (h, q, _pol) ->
      match (Hashtbl.find_opt ids h, Hashtbl.find_opt ids q) with
      | Some i, Some j ->
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j)
      | _ -> ())
    (Program.dependencies p);
  Graph.sccs n (Array.get adj)
  |> List.sort compare
  |> List.map (List.map (Array.get names))

let prop_schedule_components =
  QCheck.Test.make
    ~name:"stratify: schedule = components of each stratum's derived predicates"
    ~count:(Tgen.qcount 300) Tgen.rand_program_arb (fun program ->
      QCheck.assume (Stratify.is_stratified program);
      let idb = Program.idb_preds program in
      match (Stratify.strata program, Stratify.schedule program) with
      | Ok groups, Ok schedule ->
        schedule
        = List.filter_map
            (fun group ->
              match List.filter (fun p -> List.mem p idb) group with
              | [] -> None
              | preds -> Some (reference_components program preds))
            groups
      | Error _, _ | _, Error _ -> false)

(* The inflationary stage iteration before the counting pass: the
   immediate-consequence operator tests every ground rule at every
   stage. Returns the fixpoint and the atoms each stage added. *)
let reference_stages (pg : Propgm.t) =
  let n = Propgm.n_atoms pg in
  let step current =
    let out = Bitset.create n in
    Array.iter
      (fun rule ->
        if
          Array.for_all (Bitset.get current) rule.Propgm.pos
          && Array.for_all (fun a -> not (Bitset.get current a)) rule.Propgm.neg
        then Bitset.set out rule.Propgm.head)
      pg.Propgm.rules;
    Bitset.union_into ~dst:out current;
    out
  in
  let rec go added current =
    let next = step current in
    let added = (Bitset.count next - Bitset.count current) :: added in
    if Bitset.equal next current then (current, List.rev added) else go added next
  in
  go [] (Bitset.create n)

let prop_stages_reference =
  QCheck.Test.make ~name:"inflationary: counting stages = stage iteration"
    ~count:(Tgen.qcount 300) Tgen.rand_instance_arb (fun (program, edges) ->
      let pg = Grounder.ground program (Tgen.e_edb edges) in
      let expected, expected_added = reference_stages pg in
      let added = ref [] in
      let got = Fixpoint.stages pg ~stage:(fun k -> added := k :: !added) in
      Bitset.equal got expected && List.rev !added = expected_added)

let suite =
  [
    Alcotest.test_case "dterm eval" `Quick test_dterm_eval;
    Alcotest.test_case "dterm match" `Quick test_dterm_match;
    Alcotest.test_case "dterm extractable" `Quick test_dterm_extractable;
    Alcotest.test_case "parse facts split" `Quick test_parse_facts_split;
    Alcotest.test_case "parse literals" `Quick test_parse_literals;
    Alcotest.test_case "parse function terms" `Quick test_parse_function_terms;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse comments/strings" `Quick test_parse_comments_strings;
    Alcotest.test_case "parse/print round trip" `Quick test_parse_print_roundtrip;
    Alcotest.test_case "nullary constructor prints apart from symbol" `Quick
      test_nullary_constructor_prints;
    Alcotest.test_case "safety positive" `Quick test_safety_positive;
    Alcotest.test_case "safety negative-only var" `Quick test_safety_negative_only_var;
    Alcotest.test_case "safety head var" `Quick test_safety_head_var;
    Alcotest.test_case "safety eq binding" `Quick test_safety_eq_binding;
    Alcotest.test_case "safety ground eq" `Quick test_safety_ground_eq;
    Alcotest.test_case "safety constructor extraction" `Quick test_safety_constructor_extraction;
    Alcotest.test_case "safety neq" `Quick test_safety_neq;
    Alcotest.test_case "evaluation order" `Quick test_evaluation_order;
    Alcotest.test_case "stratified yes" `Quick test_stratified_yes;
    Alcotest.test_case "stratified no" `Quick test_stratified_no;
    Alcotest.test_case "strata order" `Quick test_strata_order;
    Alcotest.test_case "components edge cases" `Quick test_components_edges;
    Alcotest.test_case "grounding size" `Quick test_grounding_size;
    Alcotest.test_case "grounding interns negatives" `Quick test_grounding_negative_atoms_interned;
    Alcotest.test_case "grounding diverges with fuel" `Quick test_grounding_diverges;
    Alcotest.test_case "grounding rejects unsafe" `Quick test_grounding_unsafe_rejected;
    Alcotest.test_case "grounding is linear on left-linear recursion" `Quick
      test_grounding_linear;
    Alcotest.test_case "Example 4: valid vs inflationary" `Quick test_valid_example4;
    Alcotest.test_case "valid win chain" `Quick test_valid_win_chain;
    Alcotest.test_case "valid win self-loop" `Quick test_valid_win_cycle;
    Alcotest.test_case "valid win 2-cycle" `Quick test_valid_even_cycle_undefined;
    Alcotest.test_case "Interp.pp prints one fact per line" `Quick
      test_interp_pp_fact_per_line;
    Alcotest.test_case "Edb.pp breaks only between facts" `Quick
      test_edb_pp_breaks_between_facts;
    Alcotest.test_case "wf unfounded set" `Quick test_wellfounded_unfounded_set;
    Alcotest.test_case "stable two models" `Quick test_stable_two_models;
    Alcotest.test_case "stable none" `Quick test_stable_none;
    Alcotest.test_case "stable extends wf" `Quick test_stable_extends_wf;
    Alcotest.test_case "stratified matches valid" `Quick test_stratified_matches_valid;
    Alcotest.test_case "interpreted functions" `Quick test_interpreted_functions_flow;
    Alcotest.test_case "constructor recursion" `Quick test_constructor_recursion;
    Alcotest.test_case "neq literal" `Quick test_neq_literal;
    Alcotest.test_case "valid iterations" `Quick test_valid_iterations_reported;
    QCheck_alcotest.to_alcotest prop_valid_equals_wellfounded;
    QCheck_alcotest.to_alcotest prop_stable_extends_wf;
    QCheck_alcotest.to_alcotest prop_stratified_total;
    QCheck_alcotest.to_alcotest prop_negation_free_semantics_coincide;
    QCheck_alcotest.to_alcotest prop_stratify_least;
    QCheck_alcotest.to_alcotest prop_schedule_components;
    QCheck_alcotest.to_alcotest prop_stages_reference;
  ]

(* Example 1's first definition style: an auxiliary function F(i)
   accumulating a set value — set-valued attributes in deduction. *)
let test_set_valued_attributes () =
  let program, edb =
    parse
      "limit(4). f(0, set_empty()). \
       f(J, S2) :- f(I, S), limit(N), leq(I, N) = false, J = add(I, 1), S2 = S. \
       f(J, S2) :- f(I, S), limit(N), leq(I, N) = true, J = add(I, 1), \
                   S2 = set_add(mul(2, I), S), leq(J, N) = true."
  in
  ignore program;
  ignore edb;
  (* Simpler formulation: accumulate evens into a set value. *)
  let program, edb =
    parse
      "limit(6). f(0, set_empty()). \
       f(J, T) :- f(I, S), limit(N), lt(I, N) = true, J = add(I, 2), T = set_add(I, S)."
  in
  let interp = Run.valid program edb in
  let tuples = Interp.true_tuples interp "f" in
  (* The final accumulator holds {0, 2, 4}. *)
  Alcotest.(check bool) "evens accumulated" true
    (List.exists
       (fun args -> args = [ vi 6; Value.set [ vi 0; vi 2; vi 4 ] ])
       tuples)

let suite =
  suite @ [ Alcotest.test_case "set-valued attributes" `Quick test_set_valued_attributes ]

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

let test_bucket_rules () =
  let program, _ = parse "p(X) :- e(X). q(X) :- e(X). p(X) :- f(X)." in
  let sizes groups =
    List.map List.length (Program.bucket_rules groups program.Program.rules)
  in
  Alcotest.(check (list int)) "two p rules, one q, no r" [ 2; 1; 0 ]
    (sizes [ [ "p" ]; [ "q" ]; [ "r" ] ]);
  Alcotest.(check (list int)) "a group takes every member's rules" [ 3 ]
    (sizes [ [ "q"; "p" ] ]);
  match Program.bucket_rules [ [ "p" ] ] program.Program.rules with
  | [ [ r1; r2 ] ] ->
    Alcotest.(check (list string)) "program order" [ "e"; "f" ]
      (List.map (fun r -> fst (List.hd (Rule.body_preds r))) [ r1; r2 ])
  | _ -> Alcotest.fail "expected one bucket of two rules"

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

(* The interpretation as it was kept before it became a view over its
   grounding: three fact sets ordered by predicate, then arguments, with
   [base] every atom of the grounding at [make]. Every reader is held to
   it. *)
module Reference = struct
  let compare_facts (p, a) (q, b) =
    let c = String.compare p q in
    if c <> 0 then c else List.compare Value.compare a b

  module Facts = Set.Make (struct
    type t = string * Value.t list

    let compare = compare_facts
  end)

  type t = { true_ : Facts.t; undef : Facts.t; base : Facts.t }

  let facts_of_bitset pg bits =
    let acc = ref Facts.empty in
    Bitset.iter_set (fun id -> acc := Facts.add (Propgm.fact_of_id pg id) !acc) bits;
    !acc

  let make pg ~true_ ~undef =
    let base = ref Facts.empty in
    for id = 0 to Propgm.n_atoms pg - 1 do
      base := Facts.add (Propgm.fact_of_id pg id) !base
    done;
    { true_ = facts_of_bitset pg true_; undef = facts_of_bitset pg undef; base = !base }

  let holds_fact t f =
    if Facts.mem f t.true_ then Tvl.True
    else if Facts.mem f t.undef then Tvl.Undef
    else Tvl.False

  let range set pred =
    Facts.to_seq_from (pred, []) set
    |> Seq.take_while (fun (p, _) -> String.equal p pred)

  let tuples_of set pred = List.of_seq (Seq.map snd (range set pred))
  let true_tuples t pred = tuples_of t.true_ pred
  let undef_tuples t pred = tuples_of t.undef pred

  let false_tuples t pred =
    range t.base pred
    |> Seq.filter (fun f -> not (Facts.mem f t.true_ || Facts.mem f t.undef))
    |> Seq.map snd |> List.of_seq

  let preds t =
    Facts.fold
      (fun (p, _) acc ->
        match acc with
        | q :: _ when String.equal p q -> acc
        | _ :: _ | [] -> p :: acc)
      t.base []
    |> List.rev

  let to_edb t = Facts.fold (fun (p, args) edb -> Edb.add p args edb) t.true_ Edb.empty
  let count_true t = Facts.cardinal t.true_
  let count_undef t = Facts.cardinal t.undef
  let is_total t = Facts.is_empty t.undef
  let equal a b = Facts.equal a.true_ b.true_ && Facts.equal a.undef b.undef

  let pp ppf t =
    Fmt.pf ppf "@[<v>true: %a@ undef: %a@]"
      Fmt.(list ~sep:sp Propgm.pp_fact)
      (Facts.elements t.true_)
      Fmt.(list ~sep:sp Propgm.pp_fact)
      (Facts.elements t.undef)
end

(* Every reader of [i] against [r] on the predicates [preds] and the
   facts [probes]. *)
let same_readers i r ~preds ~probes =
  Interp.preds i = Reference.preds r
  && List.for_all
       (fun pred ->
         Interp.true_tuples i pred = Reference.true_tuples r pred
         && Interp.undef_tuples i pred = Reference.undef_tuples r pred
         && Interp.false_tuples i pred = Reference.false_tuples r pred)
       preds
  && List.for_all
       (fun ((pred, args) as f) ->
         let s = Reference.holds_fact r f in
         Tvl.equal (Interp.holds i pred args) s && Tvl.equal (Interp.holds_fact i f) s)
       probes
  && Interp.count_true i = Reference.count_true r
  && Interp.count_undef i = Reference.count_undef r
  && Interp.is_total i = Reference.is_total r
  && Edb.equal (Interp.to_edb i) (Reference.to_edb r)
  && String.equal (Fmt.str "%a" Interp.pp i) (Fmt.str "%a" Reference.pp r)

(* The interpretation readers against the whole-set filters they once
   were and against the [Facts]-tree interpretation, over random
   interpretations of up to 50 predicates, whose names ("p1" < "p10" <
   "p2") sort apart from their numbers. After [make], atoms are interned
   into the same table, as a later batch of [Run.Live] does: they are
   outside the captured grounding, so every reader must ignore them.
   [Interp.equal] is checked against a second grounding that interns the
   same facts in the opposite order, with one fact's status changed or
   none. *)
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
      triple
        (list_size (int_bound 150) (pair fact (int_bound 2)))
        (return npreds)
        (opt (int_bound 150)))
  in
  let print (marked, _, flip) =
    String.concat " "
      (List.map
         (fun (f, m) -> Fmt.str "%a:%d" Propgm.pp_fact f m)
         marked)
    ^ Fmt.str " flip:%a" Fmt.(option ~none:(any "none") int) flip
  in
  QCheck.Test.make ~name:"interp readers = whole-set filters"
    ~count:(Tgen.qcount 200) (QCheck.make ~print gen) (fun (marked, npreds, flip) ->
      (* The first mark of each fact wins. *)
      let marks = Hashtbl.create 64 and facts = ref [] in
      List.iter
        (fun (f, m) ->
          if not (Hashtbl.mem marks f) then begin
            Hashtbl.add marks f m;
            facts := f :: !facts
          end)
        marked;
      let facts = List.rev !facts in
      let ground facts mark =
        let atoms =
          Interner.create ~hash:Propgm.fact_hash ~equal:Propgm.fact_equal ()
        in
        List.iter (fun f -> ignore (Interner.intern atoms f)) facts;
        let pg = { Propgm.atoms; rules = [||] } in
        let n = Propgm.n_atoms pg in
        let true_ = Bitset.create n and undef = Bitset.create n in
        List.iteri
          (fun id f ->
            match mark f with
            | 0 -> Bitset.set true_ id
            | 1 -> Bitset.set undef id
            | _ -> ())
          facts;
        let view () =
          Interp.make pg ~true_:(Bitset.copy true_) ~undef:(Bitset.copy undef)
        in
        (pg, Reference.make pg ~true_ ~undef, view)
      in
      let pg, r, view = ground facts (Hashtbl.find marks) in
      let interp = view () and late = view () in
      let preds = "p" :: "q" :: List.init (npreds + 1) (Printf.sprintf "p%d") in
      let outside = [ ("q", []); ("p0", [ vi 9 ]); ("p1", [ vi 1; vi 1; vi 1 ]) ] in
      (* Whole-set filters over the captured facts. *)
      let sorted = List.sort_uniq Reference.compare_facts in
      let base = sorted facts in
      let with_mark m =
        sorted (List.filter (fun f -> Hashtbl.find marks f = m) facts)
      in
      let t = with_mark 0 and u = with_mark 1 in
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
      let filter_preds =
        List.rev
          (List.fold_left
             (fun acc (p, _) -> if List.mem p acc then acc else p :: acc)
             [] base)
      in
      let filters_hold () =
        Interp.preds interp = filter_preds
        && List.for_all
             (fun pred ->
               Interp.true_tuples interp pred = tuples_of t pred
               && Interp.undef_tuples interp pred = tuples_of u pred
               && Interp.false_tuples interp pred = false_tuples pred)
             preds
      in
      (* [interp] is read before the table grows and again after it,
         [late] only after it. *)
      let before = same_readers interp r ~preds ~probes:(facts @ outside) in
      List.iter (fun f -> ignore (Interner.intern pg.Propgm.atoms f)) outside;
      let after =
        same_readers late r ~preds ~probes:(facts @ outside)
        && same_readers interp r ~preds ~probes:(facts @ outside)
      in
      let flipped =
        match flip, facts with
        | Some k, _ :: _ -> Some (List.nth facts (k mod List.length facts))
        | Some _, [] | None, _ -> None
      in
      let mark' f =
        let m = Hashtbl.find marks f in
        if Some f = flipped then (m + 1) mod 3 else m
      in
      let _, r', view' = ground (List.rev facts) mark' in
      let interp' = view' () in
      before && after && filters_hold ()
      && Bool.equal (Interp.equal interp interp') (Reference.equal r r')
      && Bool.equal (Interp.equal interp' interp) (Reference.equal r' r))

(* An interpretation [Run.Live] returned for one batch answers every
   reader the same after the next batch interns new atoms and retracts
   others. [early] is read at once; [late], the same batch's
   interpretation from a second [Run.Live] fed the same batches, is
   read only after the next batch, so its listing is built from the
   grown atom table. *)
let test_live_interp_survives_batches () =
  let program, edb =
    parse
      "win(X) :- move(X, Y), not win(Y). move(a, b). move(b, c). move(c, a). \
       move(d, e). move(e, f)."
  in
  let fact p args = (p, List.map vs args) in
  let batch1 =
    Edb.Update.of_facts
      [ (true, "move", [ vs "f"; vs "g" ]); (false, "move", [ vs "d"; vs "e" ]) ]
  and batch2 =
    Edb.Update.of_facts
      [ (true, "move", [ vs "g"; vs "h" ]);
        (true, "move", [ vs "h"; vs "h" ]);
        (true, "step", [ vs "a" ]);
        (false, "move", [ vs "a"; vs "b" ]);
        (false, "move", [ vs "e"; vs "f" ]) ]
  in
  let probes =
    List.map (fun x -> fact "win" [ x ]) [ "a"; "c"; "d"; "e"; "f"; "g"; "h" ]
    @ [ fact "move" [ "a"; "b" ]; fact "move" [ "d"; "e" ]; fact "move" [ "g"; "h" ];
        fact "step" [ "a" ] ]
  in
  let preds = [ "move"; "win"; "step" ] in
  let read i =
    ( Interp.preds i,
      List.map
        (fun p ->
          (Interp.true_tuples i p, Interp.undef_tuples i p, Interp.false_tuples i p))
        preds,
      List.map (fun (p, args) -> Interp.holds i p args) probes,
      (Interp.count_true i, Interp.count_undef i, Interp.is_total i),
      Fmt.str "%a" Edb.pp (Interp.to_edb i),
      Fmt.str "%a" Interp.pp i )
  in
  let start () = Run.Live.start ~semantics:`Valid program edb in
  let a = start () and b = start () in
  let early = Run.Live.update a batch1 and late = Run.Live.update b batch1 in
  let expected = read early in
  let grown = Run.Live.update a batch2 in
  ignore (Run.Live.update b batch2);
  Alcotest.(check bool) "the next batch changed the answer" false
    (Interp.equal grown early);
  Alcotest.(check bool) "early, read again" true (read early = expected);
  Alcotest.(check bool) "late, read after the next batch" true (read late = expected);
  List.iter
    (fun (p, args) ->
      Alcotest.(check bool)
        (Fmt.str "%a is outside the batch's grounding" Propgm.pp_fact (p, args))
        true
        (Tvl.equal (Interp.holds late p args) Tvl.False))
    [ fact "win" [ "h" ]; fact "move" [ "g"; "h" ]; fact "step" [ "a" ] ]

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
    Alcotest.test_case "bucket_rules" `Quick test_bucket_rules;
    Alcotest.test_case "edb operations" `Quick test_edb_ops;
    Alcotest.test_case "interp false tuples" `Quick test_interp_false_tuples;
    Alcotest.test_case "interp counts" `Quick test_interp_counts;
    Alcotest.test_case "grounder strategies agree" `Quick test_grounder_strategies_agree;
    Alcotest.test_case "Run.Live interp survives the next batch" `Quick
      test_live_interp_survives_batches;
    Alcotest.test_case "subst operations" `Quick test_subst_ops;
    Alcotest.test_case "rule utilities" `Quick test_rule_utilities;
    QCheck_alcotest.to_alcotest prop_grounder_strategies_agree;
    QCheck_alcotest.to_alcotest prop_interp_readers_are_filters;
  ]

(* Multicore scale-out: the pool itself, concurrent interning, and the
   domains:N ≡ domains:1 determinism contract — every engine must return
   byte-identical results and spend identical fuel at every pool size
   (DESIGN.md §9). *)

open Recalg
module Eval = Algebra.Eval
module Rec_eval = Algebra.Rec_eval
module Expr = Algebra.Expr
module Defs = Algebra.Defs
module Db = Algebra.Db
module Edb = Datalog.Edb
module Seminaive = Datalog.Seminaive
module Run = Datalog.Run
module Interp = Datalog.Interp
module Grounder = Datalog.Grounder
module Valid = Datalog.Valid
module S2i = Translate.Stratified_to_ifp

let vs = Value.sym
let no_defs = Defs.make []

(* Evaluate [f] on a pool of [n] domains, restoring size 1 even on
   failure — later suites assume a quiet pool. *)
let with_domains n f =
  Pool.set_domains n;
  Fun.protect ~finally:(fun () -> Pool.set_domains 1) f

(* --- Pool unit tests --- *)

let test_pool_map_order () =
  with_domains 4 @@ fun () ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "map preserves order" (List.map (fun x -> x * x) xs)
    (Pool.map (fun x -> x * x) xs)

let test_pool_nested () =
  with_domains 4 @@ fun () ->
  let rows =
    Pool.map
      (fun i -> Pool.map (fun j -> (10 * i) + j) [ 0; 1; 2 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (list int)))
    "nested runs compose"
    [ [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] ]
    rows

let test_pool_first_error_wins () =
  with_domains 4 @@ fun () ->
  let boom i () = if i >= 2 then failwith (string_of_int i) else i in
  (match Pool.run (List.init 6 boom) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    Alcotest.(check string) "lowest-index failure is re-raised" "2" msg);
  (* The pool survives a failed batch. *)
  Alcotest.(check (list int)) "pool alive after failure" [ 1; 2; 3 ]
    (Pool.map Fun.id [ 1; 2; 3 ])

let test_pool_sequential_at_one () =
  Pool.set_domains 1;
  let side = ref [] in
  let thunks = List.init 5 (fun i () -> side := i :: !side) in
  ignore (Pool.run thunks);
  Alcotest.(check (list int))
    "size-1 pool runs in order on the caller" [ 4; 3; 2; 1; 0 ] !side;
  Alcotest.(check bool) "parallel() is false at size 1" false (Pool.parallel ())

(* The workers start with the first batch that can use them: a run that
   never hands the pool two tasks keeps one domain. *)
let test_pool_spawns_at_first_batch () =
  Pool.set_domains 1;
  with_domains 4 @@ fun () ->
  Alcotest.(check bool) "no workers after set_domains" false (Pool.parallel ());
  Alcotest.(check (list int)) "one-task run" [ 1 ] (Pool.run [ (fun () -> 1) ]);
  Alcotest.(check bool) "no workers after a one-task run" false (Pool.parallel ());
  Alcotest.(check (list int)) "two-task run" [ 1; 2 ]
    (Pool.run [ (fun () -> 1); (fun () -> 2) ]);
  Alcotest.(check bool) "workers live after a two-task run" true (Pool.parallel ())

(* --- Concurrent interning stress --- *)

let test_concurrent_interning () =
  let m = 400 and tasks = 8 in
  (* Pre-intern the children on the main domain so the workers' only
     fresh nodes are the wrappers themselves — then the live-node delta
     counts duplicates exactly. *)
  let chain =
    List.fold_left (fun acc _ -> Value.cstr "succ" [ acc ]) (Value.int 0)
      (List.init 64 Fun.id)
  in
  List.iter (fun i -> ignore (Value.int i)) (List.init m Fun.id);
  let build () =
    List.init m (fun i -> Value.cstr "stress_intern" [ Value.int i; chain ])
  in
  ignore (build ());
  (* One warm-up build above also pre-interns the wrappers: from here on
     every construction, on any domain, must be answered from the table. *)
  let live0 = (Value.Stats.snapshot ()).Value.Stats.live in
  Value.Stats.reset_counters ();
  with_domains 4 @@ fun () ->
  let results = Pool.run (List.init tasks (fun _ -> build)) in
  let reference = build () in
  let s = Value.Stats.snapshot () in
  Alcotest.(check int)
    "zero fresh nodes: every wrapper was already interned" live0
    s.Value.Stats.live;
  Alcotest.(check int) "zero misses under concurrent re-interning" 0
    s.Value.Stats.misses;
  List.iteri
    (fun t vs ->
      List.iter2
        (fun a b ->
          if not (a == b) then
            Alcotest.failf "task %d interned a physically distinct value" t;
          if Value.id a <> Value.id b then
            Alcotest.failf "task %d saw a different id" t)
        vs reference)
    results;
  let ids = List.sort_uniq compare (List.map Value.id reference) in
  Alcotest.(check int) "ids are unique across distinct values" m
    (List.length ids)

let test_fresh_concurrent_interning () =
  (* The racing case: many domains interning the same *fresh* values.
     Exactly one domain wins each node; everyone ends up with the same
     pointer, and the table grows by exactly the distinct-node count. *)
  let m = 300 and tasks = 8 in
  List.iter (fun i -> ignore (Value.int i)) (List.init m Fun.id);
  let live0 = (Value.Stats.snapshot ()).Value.Stats.live in
  Value.Stats.reset_counters ();
  let build () =
    List.init m (fun i -> Value.cstr "stress_fresh" [ Value.int i ])
  in
  with_domains 4 @@ fun () ->
  let results = Pool.run (List.init tasks (fun _ -> build)) in
  let s = Value.Stats.snapshot () in
  Alcotest.(check int) "live nodes grew by exactly the distinct count"
    (live0 + m) s.Value.Stats.live;
  Alcotest.(check int) "each fresh node was interned exactly once" m
    s.Value.Stats.misses;
  let reference = List.hd results in
  List.iter
    (fun vs -> List.iter2 (fun a b -> assert (a == b)) vs reference)
    results;
  Alcotest.(check int) "ids unique" m
    (List.length (List.sort_uniq compare (List.map Value.id reference)))

(* Membership indexes under contention: four domains probe the same
   never-probed sets, so they race to mark slots, build bitmaps and
   publish them, and 80 sets over 64 slots keep evicting one another.
   Tasks [t] and [t + 4] walk the sets in the same order, so they race
   on each set. Every answer must equal list membership, and so must the
   sequential answers afterwards. *)
let test_concurrent_mem_index () =
  let n = 80 in
  let sets =
    Array.init n (fun k ->
        let probes =
          List.init
            (2 * (17 + k))
            (fun i -> Value.cstr "par_mem" [ Value.int k; Value.int i ])
        in
        (Value.set (List.filteri (fun i _ -> i mod 2 = 0) probes), probes))
  in
  let expected =
    List.init n (fun k -> List.mapi (fun i _ -> i mod 2 = 0) (snd sets.(k)))
  in
  let answers offset () =
    let out = Array.make n [] in
    for j = 0 to n - 1 do
      let k = (j + offset) mod n in
      let s, probes = sets.(k) in
      out.(k) <- List.map (fun x -> Value.mem x s) probes
    done;
    Array.to_list out
  in
  let parallel =
    with_domains 4 (fun () ->
        Pool.run (List.init 8 (fun t -> answers (20 * (t mod 4)))))
  in
  List.iteri
    (fun t got ->
      Alcotest.(check (list (list bool))) (Printf.sprintf "task %d" t) expected got)
    parallel;
  Alcotest.(check (list (list bool))) "sequential afterwards" expected (answers 0 ())

(* --- domains:4 ≡ domains:1 engine properties --- *)

let edge_db edges =
  Db.of_list [ ("edge", List.map (fun (a, b) -> Value.pair (vs a) (vs b)) edges) ]

let prop_eval_domains =
  QCheck.Test.make ~name:"Eval: domains:4 = domains:1 (value and fuel)"
    ~count:(Tgen.qcount 60)
    QCheck.(pair Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (body, edges) ->
      let e = Expr.ifp "x" body in
      let run n =
        with_domains n @@ fun () ->
        let fuel = Limits.of_int 400 in
        try
          let v = Eval.eval ~fuel no_defs (edge_db edges) e in
          Ok (v, Limits.remaining fuel)
        with Limits.Diverged _ -> Error `Diverged
      in
      match (run 1, run 4) with
      | Ok (v1, f1), Ok (v2, f2) -> Value.equal v1 v2 && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

let prop_rec_eval_domains =
  QCheck.Test.make ~name:"Rec_eval: domains:4 = domains:1 (bounds and fuel)"
    ~count:(Tgen.qcount 40)
    QCheck.(triple Tgen.ifp_body_arb Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (b1, b2, edges) ->
      let subst to_ e =
        Expr.map_rels (fun n -> Expr.rel (if n = "x" then to_ else n)) e
      in
      let defs =
        Defs.make
          [ Defs.constant "c" (subst "d" b1); Defs.constant "d" (subst "c" b2) ]
      in
      let run n =
        with_domains n @@ fun () ->
        let fuel = Limits.of_int 5000 in
        try
          let sol = Rec_eval.solve ~fuel defs (edge_db edges) in
          Ok
            ( Rec_eval.constant sol "c",
              Rec_eval.constant sol "d",
              Limits.remaining fuel )
        with Limits.Diverged _ -> Error `Diverged
      in
      match (run 1, run 4) with
      | Ok (c1, d1, f1), Ok (c2, d2, f2) ->
        Value.equal c1.Rec_eval.low c2.Rec_eval.low
        && Value.equal c1.Rec_eval.high c2.Rec_eval.high
        && Value.equal d1.Rec_eval.low d2.Rec_eval.low
        && Value.equal d1.Rec_eval.high d2.Rec_eval.high
        && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

let prop_seminaive_domains =
  (* Both a direct semi-naive run over the raw rule set (one domain)
     and the component-parallel stratified driver. *)
  QCheck.Test.make ~name:"Seminaive: domains:4 = domains:1 (EDB and fuel)"
    ~count:(Tgen.qcount 60) Tgen.rand_instance_arb
    (fun (program, edges) ->
      let base = Tgen.e_edb edges in
      let run n =
        with_domains n @@ fun () ->
        let fuel = Limits.of_int 2000 in
        try
          let direct =
            Seminaive.seminaive ~fuel program ~base
              program.Datalog.Program.rules
          in
          let strat = Run.stratified ~fuel program base in
          Ok (direct, strat, Limits.remaining fuel)
        with
        | Limits.Diverged _ -> Error `Diverged
        | Seminaive.Unsafe m -> Error (`Unsafe m)
      in
      match (run 1, run 4) with
      | Ok (d1, s1, f1), Ok (d2, s2, f2) ->
        Edb.equal d1 d2 && f1 = f2
        && (match (s1, s2) with
           | Ok e1, Ok e2 -> Edb.equal e1 e2
           | Error m1, Error m2 -> m1 = m2
           | _ -> false)
      | Error e1, Error e2 -> e1 = e2
      | _ -> false)

let prop_grounder_domains =
  QCheck.Test.make ~name:"grounder/valid: domains:4 = domains:1"
    ~count:(Tgen.qcount 40) Tgen.rand_instance_arb
    (fun (program, edges) ->
      let edb = Tgen.e_edb edges in
      let preds = [ "p"; "q"; "r"; "e" ] in
      let run n =
        with_domains n @@ fun () ->
        let fuel = Limits.of_int 5000 in
        try
          let interp = Valid.solve (Grounder.ground ~fuel program edb) in
          Ok
            ( List.map (fun p -> (Interp.true_tuples interp p,
                                  Interp.undef_tuples interp p)) preds,
              Limits.remaining fuel )
        with Limits.Diverged _ -> Error `Diverged
      in
      match (run 1, run 4) with
      | Ok (t1, f1), Ok (t2, f2) -> t1 = t2 && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

let prop_translate_eval_all_domains =
  QCheck.Test.make
    ~name:"Stratified_to_ifp.eval_all: domains:4 = domains:1, = eval_pred"
    ~count:(Tgen.qcount 40) Tgen.rand_instance_arb
    (fun (program, edges) ->
      let edb = Tgen.e_edb edges in
      match S2i.translate program edb with
      | Error _ -> true (* unsafe or unstratified: nothing to compare *)
      | Ok t ->
        let run n =
          with_domains n @@ fun () ->
          let fuel = Limits.of_int 20000 in
          try
            let r = S2i.eval_all ~fuel t in
            Ok (r, Limits.remaining fuel)
          with Limits.Diverged _ -> Error `Diverged
        in
        (match (run 1, run 4) with
        | Ok (r1, f1), Ok (r2, f2) ->
          f1 = f2
          && List.for_all2
               (fun (p1, v1) (p2, v2) -> p1 = p2 && Value.equal v1 v2)
               r1 r2
          && List.for_all
               (fun (pred, v) ->
                 (* Cross-check against the one-predicate evaluator. *)
                 Value.equal v
                   (Value.set (List.map Value.tuple (S2i.eval_pred t pred))))
               r1
        | Error `Diverged, Error `Diverged -> true
        | _ -> false))

let prop_traced_equals_untraced_parallel =
  (* The observability layer must stay pure under parallel rounds: at
     domains:4, a traced run returns the same value and fuel as an
     untraced one, and the trace itself is well-formed (balanced span
     events were checked by test_obs; here we only require nonempty). *)
  QCheck.Test.make ~name:"traced = untraced at domains:4"
    ~count:(Tgen.qcount 30)
    QCheck.(pair Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (body, edges) ->
      let e = Expr.ifp "x" body in
      let run traced =
        with_domains 4 @@ fun () ->
        let fuel = Limits.of_int 400 in
        let eval () =
          try
            let v = Eval.eval ~fuel no_defs (edge_db edges) e in
            Ok (v, Limits.remaining fuel)
          with Limits.Diverged _ -> Error `Diverged
        in
        if traced then begin
          let mem, events = Obs.Sink.memory () in
          let r = Obs.with_sink mem eval in
          (r, List.length (events ()))
        end
        else (eval (), 0)
      in
      let traced, events = run true in
      let untraced, _ = run false in
      events > 0
      &&
      match (traced, untraced) with
      | Ok (v1, f1), Ok (v2, f2) -> Value.equal v1 v2 && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

(* --- Failure containment (DESIGN.md Â§11): a raising or cancelled
   task must leave the pool reusable, the intern shards unlocked, and
   a shared fuel budget exactly accounted. --- *)

let test_pool_task_fault_recovery () =
  with_domains 4 @@ fun () ->
  Faultinj.arm ~site:"pool/task" ~after:2;
  (match
     Pool.run
       (List.init 8 (fun i () -> Value.cstr "chaos_par" [ Value.int i ]))
   with
  | _ -> Alcotest.fail "expected Injected"
  | exception Faultinj.Injected { site; _ } ->
    Alcotest.(check string) "the armed site fired" "pool/task" site);
  Faultinj.disarm ();
  (* The pool survives and is reusableâ¦ *)
  Alcotest.(check (list int)) "pool alive after injected task" [ 2; 3; 4 ]
    (Pool.map (fun x -> x + 1) [ 1; 2; 3 ]);
  (* â¦and the intern shards were not left locked: fresh interning on
     every domain still converges to shared nodes. *)
  let build () =
    List.init 50 (fun i -> Value.cstr "chaos_par_fresh" [ Value.int i ])
  in
  let results = Pool.run (List.init 8 (fun _ -> build)) in
  let reference = build () in
  List.iter
    (fun vs -> List.iter2 (fun a b -> assert (a == b)) vs reference)
    results

let test_pool_intern_fault_recovery () =
  (* The fault fires *inside* [Value.make] on a worker domain â before
     the shard lock is taken, so nothing can be left held. *)
  with_domains 4 @@ fun () ->
  Faultinj.arm ~site:"value/intern" ~after:40;
  (match
     Pool.run
       (List.init 8 (fun t () ->
            List.init 50 (fun i ->
                Value.cstr "chaos_par_intern" [ Value.int ((100 * t) + i) ])))
   with
  | _ -> () (* armed count may exceed the batch's builds on fast paths *)
  | exception Faultinj.Injected _ -> ());
  Faultinj.disarm ();
  let v = Value.cstr "chaos_par_intern" [ Value.int 0 ] in
  Alcotest.(check bool) "interner functional after fault" true
    (v == Value.cstr "chaos_par_intern" [ Value.int 0 ])

let test_pool_fuel_exactly_restored () =
  (* Eight tasks race a 100-step budget: every failed spend restores
     its decrement before raising, so after the batch fails the count
     is exactly zero â not negative, not short. *)
  with_domains 4 @@ fun () ->
  let fuel = Limits.of_int 100 in
  let task () =
    for _ = 1 to 1_000 do
      Limits.spend fuel ~what:"parallel chaos"
    done
  in
  (match Pool.run (List.init 8 (fun _ -> task)) with
  | _ -> Alcotest.fail "expected fuel exhaustion"
  | exception Limits.Diverged _ -> ());
  Alcotest.(check (option int)) "fuel restored to exactly zero" (Some 0)
    (Limits.remaining fuel);
  Alcotest.(check (list int)) "pool alive after exhaustion" [ 1; 2; 3 ]
    (Pool.map Fun.id [ 1; 2; 3 ])

let test_pool_cancellation () =
  with_domains 4 @@ fun () ->
  let tok = Limits.cancel_token () in
  let fuel = Limits.governed ~cancel:tok () in
  Limits.cancel tok;
  Limits.with_active fuel (fun () ->
      match Pool.run (List.init 4 (fun i () -> i)) with
      | _ -> Alcotest.fail "expected cancellation"
      | exception Limits.Resource_exhausted { kind = Limits.Cancelled; _ } ->
        ());
  (* Outside the ambient budget the pool serves again. *)
  Alcotest.(check (list int)) "pool alive after cancellation" [ 0; 1; 2; 3 ]
    (Pool.map Fun.id [ 0; 1; 2; 3 ])

(* Semi-naive evaluation with a live pool on a graph big enough for many
   index builds: non-linear TC fires two (rule, delta position) tasks
   per round, both probing the [t] store by a bound first argument, and
   the rounds run on one domain whatever the pool size. 4 chains of 50
   nodes with shortcuts and cross-chain edges. *)
let test_seminaive_parallel_stress () =
  let program, _ =
    Datalog.Parser.parse_exn "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), t(Y, Z)."
  in
  let nodes = 200 and chain = 50 in
  let edges =
    List.concat_map
      (fun n ->
        let along = if n mod chain < chain - 1 then [ (n, n + 1) ] else [] in
        let skip =
          if n mod 7 = 0 && (n mod chain) + 5 < chain then [ (n, n + 2 + (n mod 4)) ]
          else []
        in
        let across =
          if n mod chain = 10 && n + chain < nodes then [ (n, n + chain) ] else []
        in
        along @ skip @ across)
      (List.init nodes Fun.id)
  in
  let base =
    List.fold_left
      (fun edb (a, b) -> Edb.add "e" [ Value.int a; Value.int b ] edb)
      Edb.empty edges
  in
  let reachable =
    (* Independent count of the closure, by DFS from every node. *)
    let succ = Array.make nodes [] in
    List.iter (fun (a, b) -> succ.(a) <- b :: succ.(a)) edges;
    let count src =
      let seen = Array.make nodes false in
      let rec go n =
        List.iter
          (fun m ->
            if not seen.(m) then begin
              seen.(m) <- true;
              go m
            end)
          succ.(n)
      in
      go src;
      Array.fold_left (fun k b -> if b then k + 1 else k) 0 seen
    in
    List.fold_left (fun k n -> k + count n) 0 (List.init nodes Fun.id)
  in
  let run n =
    with_domains n @@ fun () ->
    let fuel = Limits.of_int 1_000_000 in
    let direct =
      Seminaive.seminaive ~fuel program ~base program.Datalog.Program.rules
    in
    let strat =
      match Run.stratified ~fuel program base with
      | Ok db -> db
      | Error msg -> Alcotest.fail msg
    in
    (direct, strat, Limits.remaining fuel)
  in
  let d1, s1, f1 = run 1 in
  let d4, s4, f4 = run 4 in
  Alcotest.(check int) "closure size" reachable (Edb.cardinal d1 "t");
  Alcotest.(check bool) "seminaive: domains 4 = domains 1" true (Edb.equal d1 d4);
  Alcotest.(check bool) "stratified: domains 4 = domains 1" true (Edb.equal s1 s4);
  Alcotest.(check (option int)) "fuel left" f1 f4

let suite =
  [
    Alcotest.test_case "pool map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "pool nested runs" `Quick test_pool_nested;
    Alcotest.test_case "pool first error wins" `Quick test_pool_first_error_wins;
    Alcotest.test_case "pool size 1 is sequential" `Quick
      test_pool_sequential_at_one;
    Alcotest.test_case "concurrent re-interning shares every node" `Quick
      test_concurrent_interning;
    Alcotest.test_case "concurrent fresh interning is duplicate-free" `Quick
      test_fresh_concurrent_interning;
    Alcotest.test_case "concurrent membership indexes" `Quick
      test_concurrent_mem_index;
    QCheck_alcotest.to_alcotest prop_eval_domains;
    QCheck_alcotest.to_alcotest prop_rec_eval_domains;
    QCheck_alcotest.to_alcotest prop_seminaive_domains;
    QCheck_alcotest.to_alcotest prop_grounder_domains;
    QCheck_alcotest.to_alcotest prop_translate_eval_all_domains;
    QCheck_alcotest.to_alcotest prop_traced_equals_untraced_parallel;
    Alcotest.test_case "injected task leaves the pool reusable" `Quick
      test_pool_task_fault_recovery;
    Alcotest.test_case "injected intern leaves shards unlocked" `Quick
      test_pool_intern_fault_recovery;
    Alcotest.test_case "parallel exhaustion restores fuel exactly" `Quick
      test_pool_fuel_exactly_restored;
    Alcotest.test_case "cancellation drains the pool cleanly" `Quick
      test_pool_cancellation;
    Alcotest.test_case "seminaive stress: non-linear TC, 200 nodes" `Quick
      test_seminaive_parallel_stress;
    Alcotest.test_case "pool spawns its workers at the first batch" `Quick
      test_pool_spawns_at_first_batch;
  ]

(* Chaos harness: deterministic fault injection swept across every
   engine, abort-atomicity of the incremental update paths, and the
   governed-budget contract — deadline, memory ceiling, cancellation,
   graceful degradation — from DESIGN.md §11. Every fault here is
   seeded and replayable: [(site, after)] fully determines where an
   injection lands. *)

open Recalg
module Eval = Algebra.Eval
module Rec_eval = Algebra.Rec_eval
module Expr = Algebra.Expr
module Defs = Algebra.Defs
module Db = Algebra.Db
module AI = Algebra.Incremental
module DI = Datalog.Incremental
module DU = Datalog.Edb.Update
module Run = Datalog.Run
module Interp = Datalog.Interp
module Edb = Datalog.Edb

let vp a b = Value.pair (Value.sym a) (Value.sym b)
let no_defs = Defs.make []

let edge_db edges =
  Db.of_list [ ("edge", List.map (fun (a, b) -> vp a b) edges) ]

let tc_expr =
  Expr.ifp "x"
    (Expr.union (Expr.rel "edge")
       (Tgen.compose_expr (Expr.rel "edge") (Expr.rel "x")))

let tc_defs =
  Defs.make
    [
      Defs.constant "T"
        (Expr.union (Expr.rel "edge")
           (Tgen.compose_expr (Expr.rel "edge") (Expr.rel "T")));
    ]

let dl_program =
  match
    Datalog.Parser.parse
      "path(X,Y) :- e(X,Y). path(X,Y) :- e(X,Z), path(Z,Y)."
  with
  | Ok (p, _) -> p
  | Error m -> failwith m

(* The unbounded Peano program: grounding never terminates, so only a
   resource ceiling can stop it — the divergence every deadline /
   cancellation / memory test needs. *)
let peano_program, peano_edb =
  match Datalog.Parser.parse "p(z). p(s(X)) :- p(X)." with
  | Ok pe -> pe
  | Error m -> failwith m

let chain_edges = [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "e") ]

let interp_fp i =
  Value.hash (Value.set (List.map Value.tuple (Interp.true_tuples i "path")))

let edb_fp e = Hashtbl.hash (Format.asprintf "%a" Edb.pp e)

(* ------------------------------------------------------------------ *)
(* The sweep: every engine x every injection site x several skip
   counts. A fault either never fires (the engine does not visit the
   site, or finishes first) or surfaces as [Injected] — anything else
   means an engine masked or transmuted the failure. After the sweep
   each engine must still compute the reference answer: no global
   state (interner, pool, latches) was poisoned. *)

(* Each engine run builds its state from scratch and returns a result
   fingerprint, so a post-sweep rerun is comparable to the pre-sweep
   reference. *)
let engines : (string * (unit -> int)) list =
  [
    ("eval", fun () -> Value.hash (Eval.eval no_defs (edge_db chain_edges) tc_expr));
    ( "rec_eval",
      fun () ->
        let sol = Rec_eval.solve tc_defs (edge_db chain_edges) in
        let vs = Rec_eval.constant sol "T" in
        Hashtbl.hash (Value.hash vs.Rec_eval.low, Value.hash vs.Rec_eval.high) );
    ( "stratified",
      fun () ->
        match Datalog.Seminaive.stratified dl_program (Tgen.e_edb chain_edges) with
        | Ok e -> edb_fp e
        | Error m -> failwith m );
    ("valid", fun () -> interp_fp (Run.valid dl_program (Tgen.e_edb chain_edges)));
    ( "run_live",
      fun () ->
        let live =
          Run.Live.start ~semantics:`Valid dl_program
            (Tgen.e_edb (List.tl chain_edges))
        in
        interp_fp (Run.Live.update live DU.(insert "e" [ Value.sym "a"; Value.sym "b" ] empty)) );
    ( "dl_incremental",
      fun () ->
        match DI.init dl_program (Tgen.e_edb (List.tl chain_edges)) with
        | Error m -> failwith m
        | Ok t ->
          edb_fp (DI.update t DU.(insert "e" [ Value.sym "a"; Value.sym "b" ] empty)) );
    ( "alg_incremental",
      fun () ->
        let eng = AI.init no_defs (edge_db (List.tl chain_edges)) tc_expr in
        Value.hash (AI.update eng AI.Update.(insert "edge" (vp "a" "b") empty)) );
    ( "pool",
      fun () ->
        Pool.set_domains 4;
        Fun.protect
          ~finally:(fun () -> Pool.set_domains 1)
          (fun () ->
            Hashtbl.hash
              (Pool.run
                 (List.init 8 (fun i () ->
                      Value.id (Value.cstr "chaos_pool" [ Value.int i ]))))) );
    ( "safe_io",
      fun () ->
        let path = Filename.temp_file "recalg_chaos_io" ".txt" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Safe_io.with_file path (fun oc -> output_string oc "payload");
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                Hashtbl.hash (really_input_string ic (in_channel_length ic)))) );
  ]

let test_sweep () =
  let reference = List.map (fun (name, run) -> (name, run ())) engines in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun site ->
          List.iter
            (fun after ->
              Faultinj.arm ~site ~after;
              (match run () with
              | _ -> () (* the fault never fired on this path *)
              | exception Faultinj.Injected { site = s; _ } ->
                if s <> site then
                  Alcotest.failf "%s: armed %s but %s fired" name site s
              | exception e ->
                Alcotest.failf "%s: fault at %s:%d surfaced as %s" name site
                  after (Printexc.to_string e));
              Faultinj.disarm ())
            [ 0; 1; 3 ])
        Faultinj.sites;
      let again = run () in
      Alcotest.(check int)
        (name ^ " recomputes the reference after the sweep")
        (List.assoc name reference) again)
    engines

(* Every engine's signature site is actually on its path — armed far
   beyond its visit count so nothing fires, then the counter is read.
   A sweep over sites nobody visits would pass vacuously without this. *)
let test_sites_visited () =
  List.iter
    (fun (name, site) ->
      let run = List.assoc name engines in
      Faultinj.arm ~site ~after:1_000_000;
      ignore (run ());
      let n = Faultinj.hits site in
      Faultinj.disarm ();
      if n = 0 then Alcotest.failf "%s never visited its site %s" name site)
    [
      ("eval", "eval/round");
      ("eval", "value/intern");
      ("rec_eval", "rec_eval/round");
      ("stratified", "seminaive/round");
      ("valid", "ground/round");
      ("run_live", "incr/batch");
      ("dl_incremental", "incr/batch");
      ("alg_incremental", "incr/batch");
      ("pool", "pool/task");
      ("safe_io", "io/write");
    ]

(* ------------------------------------------------------------------ *)
(* Abort atomicity: a fault anywhere inside an update batch leaves the
   engine byte-identical to never having started the batch — and after
   disarming, the same batch applies cleanly and agrees with scratch. *)

let batches_gen =
  QCheck.Gen.(
    let edge = pair (oneofl Tgen.node_names) (oneofl Tgen.node_names) in
    list_size (int_range 1 4) (pair bool edge))

let print_batch b =
  String.concat ","
    (List.map (fun (ins, (x, y)) -> (if ins then "+" else "-") ^ x ^ y) b)

let dl_batch ops =
  List.fold_left
    (fun u (ins, (a, b)) ->
      let t = [ Value.sym a; Value.sym b ] in
      if ins then DU.insert "e" t u else DU.delete "e" t u)
    DU.empty ops

(* The injection points that can land inside a Datalog update batch,
   each tried at several depths so the fault hits the batch-entry
   span, the re-derivation rounds, and the interner. *)
let dl_fault_plans =
  [ ("incr/batch", 0); ("seminaive/round", 0); ("seminaive/round", 2);
    ("value/intern", 5); ("ground/round", 0); ("ground/round", 2) ]

let dl_abort_arb =
  QCheck.make
    ~print:(fun (p, g, b) ->
      Datalog.Program.to_string p ^ " | "
      ^ String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) g)
      ^ " | " ^ print_batch b)
    QCheck.Gen.(
      triple Tgen.rand_program_gen
        (Tgen.graph_gen ~max_nodes:4 ~max_edges:6 ())
        batches_gen)

let prop_dl_abort_atomic =
  QCheck.Test.make
    ~name:"datalog incremental: aborted batch ≡ never started"
    ~count:(Tgen.qcount 80) dl_abort_arb (fun (program, g, ops) ->
      match DI.init program (Tgen.e_edb g) with
      | Error _ -> true (* not stratified: out of scope *)
      | Ok t ->
        let u = dl_batch ops in
        let pre_edb = DI.edb t and pre_result = DI.result t in
        let atomic =
          List.for_all
            (fun (site, after) ->
              Faultinj.arm ~site ~after;
              let ok =
                match DI.update t u with
                | _ -> true (* fault fell past this batch's visits *)
                | exception Faultinj.Injected _ ->
                  Edb.equal (DI.edb t) pre_edb
                  && Edb.equal (DI.result t) pre_result
              in
              Faultinj.disarm ();
              (* Re-establish the pre-batch state for the next plan:
                 set-semantics batches are idempotent, so re-applying
                 from either state converges; roll back via inverse is
                 not needed — just rebuild. *)
              ok)
            dl_fault_plans
        in
        (* A clean run from wherever the sweep left the engine must
           agree with scratch on the final database. *)
        let final = DI.update t u in
        let scratch =
          match Datalog.Seminaive.stratified program (DI.edb t) with
          | Ok e -> e
          | Error m -> Alcotest.fail m
        in
        atomic && Edb.equal final scratch)

let alg_abort_arb =
  QCheck.make
    ~print:(fun (body, g, b) ->
      Expr.to_string body ^ " | "
      ^ String.concat " " (List.map (fun (a, b) -> a ^ "->" ^ b) g)
      ^ " | " ^ print_batch b)
    QCheck.Gen.(
      triple Tgen.ifp_body_gen
        (Tgen.graph_gen ~max_nodes:4 ~max_edges:6 ())
        batches_gen)

let alg_batch ops =
  List.fold_left
    (fun u (ins, (a, b)) ->
      if ins then AI.Update.insert "edge" (vp a b) u
      else AI.Update.delete "edge" (vp a b) u)
    AI.Update.empty ops

let prop_alg_abort_atomic =
  QCheck.Test.make
    ~name:"algebra incremental: aborted batch ≡ never started"
    ~count:(Tgen.qcount 80) alg_abort_arb (fun (body, g, ops) ->
      let e = Expr.ifp "x" body in
      let eng = AI.init no_defs (edge_db g) e in
      let u = alg_batch ops in
      let pre = AI.value eng in
      let pre_edge = Db.find (AI.db eng) "edge" in
      let atomic =
        List.for_all
          (fun (site, after) ->
            Faultinj.arm ~site ~after;
            let ok =
              match AI.update eng u with
              | _ -> true
              | exception Faultinj.Injected _ ->
                Value.equal (AI.value eng) pre
                && Option.equal Value.equal (Db.find (AI.db eng) "edge") pre_edge
            in
            Faultinj.disarm ();
            ok)
          [ ("incr/batch", 0); ("eval/round", 0); ("value/intern", 3) ]
      in
      let final = AI.update eng u in
      atomic && Value.equal final (Eval.eval no_defs (AI.db eng) e))

let prop_live_abort_atomic =
  QCheck.Test.make
    ~name:"live grounding: aborted batch ≡ never started (valid semantics)"
    ~count:(Tgen.qcount 60) dl_abort_arb (fun (program, g, ops) ->
      let live = Run.Live.start ~semantics:`Valid program (Tgen.e_edb g) in
      let u = dl_batch ops in
      let pre_interp = Run.Live.interp live and pre_edb = Run.Live.edb live in
      let atomic =
        List.for_all
          (fun (site, after) ->
            Faultinj.arm ~site ~after;
            let ok =
              match Run.Live.update live u with
              | _ -> true
              | exception Faultinj.Injected _ ->
                Interp.equal (Run.Live.interp live) pre_interp
                && Edb.equal (Run.Live.edb live) pre_edb
            in
            Faultinj.disarm ();
            ok)
          [ ("incr/batch", 0); ("ground/round", 0); ("ground/round", 2);
            ("value/intern", 5) ]
      in
      let i = Run.Live.update live u in
      atomic && Interp.equal i (Run.valid program (Run.Live.edb live)))

(* ------------------------------------------------------------------ *)
(* The governed-budget contract.                                       *)

(* Arming ceilings that never trip changes nothing: value and fuel
   equal the plain-budget run, divergence included. *)
let prop_governed_equals_plain =
  QCheck.Test.make
    ~name:"governed (no ceiling hit) ≡ plain fuel (value and fuel)"
    ~count:(Tgen.qcount 80)
    QCheck.(pair Tgen.ifp_body_arb Tgen.graph_arb)
    (fun (body, edges) ->
      let e = Expr.ifp "x" body in
      let run mk =
        let fuel = mk () in
        try
          let v = Eval.eval ~fuel no_defs (edge_db edges) e in
          Ok (v, Limits.remaining fuel)
        with Limits.Diverged _ -> Error `Diverged
      in
      let plain = run (fun () -> Limits.of_int 400) in
      let governed =
        run (fun () ->
            Limits.governed ~fuel:400 ~timeout_ms:3_600_000
              ~memory_limit_mb:1_048_576 ())
      in
      match (plain, governed) with
      | Ok (v1, f1), Ok (v2, f2) -> Value.equal v1 v2 && f1 = f2
      | Error `Diverged, Error `Diverged -> true
      | _ -> false)

let test_timeout_interrupts_divergence () =
  let fuel = Limits.governed ~timeout_ms:50 () in
  match Run.valid ~fuel peano_program peano_edb with
  | _ -> Alcotest.fail "the Peano grounding terminated?"
  | exception Limits.Resource_exhausted { kind = Limits.Deadline; _ } -> ()

let test_cancellation_interrupts_divergence () =
  let tok = Limits.cancel_token () in
  let fuel = Limits.governed ~cancel:tok () in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        Limits.cancel tok)
  in
  Fun.protect
    ~finally:(fun () -> Domain.join canceller)
    (fun () ->
      match Run.valid ~fuel peano_program peano_edb with
      | _ -> Alcotest.fail "the Peano grounding terminated?"
      | exception Limits.Resource_exhausted { kind = Limits.Cancelled; _ } -> ())

let test_memory_ceiling_interrupts_divergence () =
  (* Retained ballast guarantees the major heap exceeds the 1 MB
     ceiling regardless of what ran before this test. *)
  let ballast = Array.make 300_000 0 in
  let fuel = Limits.governed ~memory_limit_mb:1 () in
  match Run.valid ~fuel peano_program peano_edb with
  | _ -> Alcotest.fail "the Peano grounding terminated?"
  | exception Limits.Resource_exhausted { kind = Limits.Memory; _ } ->
    ignore (Array.length ballast)

(* Degradation: a monotone fixpoint under [~degrade:true] returns the
   best-so-far under-approximation and latches what ran out, instead
   of raising. *)
let test_degrade_returns_subset () =
  let db = edge_db chain_edges in
  let full = Eval.eval no_defs db tc_expr in
  let fuel = Limits.governed ~fuel:3 ~degrade:true () in
  let got = Eval.eval ~fuel no_defs db tc_expr in
  Alcotest.(check bool) "under-approximates" true (Value.subset got full);
  (match Limits.degraded fuel with
  | Some (Limits.Fuel, _) -> ()
  | Some _ -> Alcotest.fail "degraded, but not on fuel"
  | None -> Alcotest.fail "tiny budget did not degrade");
  Alcotest.(check bool) "strictly partial" false (Value.equal got full)

(* A truncated IFP under a difference's right side would subtract too
   little: there exhaustion raises, whether the IFP sits in the query or
   in a constant the query subtracts, and a constant cut short where it
   is added is not subtracted later. Under two differences, counting the
   one in the constant's body, the answer grows with the IFP again, and
   it degrades. *)
let test_degrade_only_where_monotone () =
  let upto n = Expr.lit (List.init n Value.int) in
  let count =
    Expr.(
      ifp "x"
        (union (lit [ Value.int 0 ])
           (map (Algebra.Efun.add_const 1)
              (select
                 (Algebra.Pred.Lt (Algebra.Efun.Id, Algebra.Efun.Const (Value.int 9)))
                 (rel "x")))))
  in
  let defs =
    Defs.make
      [ Defs.constant "c" count; Defs.constant "d" (Expr.diff (upto 10) (Expr.rel "c")) ]
  in
  let run e =
    let fuel = Limits.governed ~fuel:3 ~degrade:true () in
    match Eval.eval ~fuel defs Db.empty e with
    | v -> Ok (v, Limits.degraded fuel)
    | exception (Limits.Diverged _ | Limits.Resource_exhausted _) -> Error ()
  in
  List.iter
    (fun (label, e) ->
      match run e with
      | Ok (v, _) -> Alcotest.failf "%s: degraded to %a" label Value.pp v
      | Error () -> ())
    [ ("IFP subtracted", Expr.diff (upto 10) count);
      ("constant subtracted", Expr.diff (upto 10) (Expr.rel "c"));
      ( "constant added and subtracted",
        Expr.(union (diff (upto 10) (rel "c")) (diff (rel "c") (lit [ Value.int 9 ]))) )
    ];
  let e = Expr.diff (upto 10) (Expr.rel "d") in
  let full = Eval.eval defs Db.empty e in
  match run e with
  | Ok (v, Some (Limits.Fuel, _)) ->
    Alcotest.(check bool) "twice subtracted: sound subset" true (Value.subset v full);
    Alcotest.(check bool) "twice subtracted: strictly partial" false (Value.equal v full)
  | Ok (_, _) -> Alcotest.fail "twice subtracted: not degraded on fuel"
  | Error _ -> Alcotest.fail "twice subtracted: raised"

let test_degrade_stratified_prefix () =
  let base = Tgen.e_edb chain_edges in
  let full =
    match Datalog.Seminaive.stratified dl_program base with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  (* Find a budget that degrades: start tiny and grow until the run
     stops degrading — every degraded run on the way must be a subset
     of the full answer. *)
  let rec probe n checked =
    if n > 10_000 then checked
    else
      let fuel = Limits.governed ~fuel:n ~degrade:true () in
      match Datalog.Seminaive.stratified ~fuel dl_program base with
      | Error m -> Alcotest.fail m
      | Ok got ->
        if Limits.degraded fuel = None then begin
          Alcotest.check (Alcotest.testable Edb.pp Edb.equal)
            "non-degraded run is complete" full got;
          checked
        end
        else begin
          let subset = Edb.fold (fun p t ok -> ok && Edb.mem full p t) got true in
          Alcotest.(check bool)
            (Printf.sprintf "fuel %d: degraded result ⊆ full" n)
            true subset;
          probe (n * 4) (checked + 1)
        end
  in
  let degraded_runs = probe 1 0 in
  Alcotest.(check bool) "at least one budget actually degraded" true
    (degraded_runs > 0)

(* The incremental engines must NOT silently under-approximate — a
   degraded re-derivation is promoted back to an abort, with the
   pre-batch state restored, because later deltas would compound the
   incompleteness. *)
let test_incremental_promotes_degradation () =
  let base = Tgen.e_edb (List.tl chain_edges) in
  let u = dl_batch [ (true, ("a", "b")) ] in
  let spent_by_init =
    let fuel = Limits.governed ~fuel:100_000 ~degrade:true () in
    match DI.init ~fuel dl_program base with
    | Error m -> Alcotest.fail m
    | Ok _ -> (
      match Limits.remaining fuel with
      | Some r -> 100_000 - r
      | None -> Alcotest.fail "finite budget reports no remaining fuel")
  in
  (* Enough to initialize, nowhere near enough to re-derive the batch. *)
  let fuel = Limits.governed ~fuel:(spent_by_init + 2) ~degrade:true () in
  match DI.init ~fuel dl_program base with
  | Error m -> Alcotest.fail m
  | Ok t -> (
    let pre_edb = DI.edb t and pre_result = DI.result t in
    match DI.update t u with
    | _ -> Alcotest.fail "update succeeded on a starved budget"
    | exception Limits.Resource_exhausted { kind = Limits.Fuel; _ } ->
      Alcotest.(check bool) "edb rolled back" true (Edb.equal (DI.edb t) pre_edb);
      Alcotest.(check bool) "result rolled back" true
        (Edb.equal (DI.result t) pre_result))

(* ------------------------------------------------------------------ *)
(* Faultinj and Safe_io themselves.                                    *)

let test_faultinj_arming () =
  Alcotest.check_raises "negative skip rejected"
    (Invalid_argument "Faultinj.arm: after must be >= 0") (fun () ->
      Faultinj.arm ~site:"eval/round" ~after:(-1));
  Faultinj.arm ~site:"eval/round" ~after:2;
  Faultinj.hit "eval/round";
  Faultinj.hit "eval/round";
  Faultinj.hit "other/site";
  Alcotest.(check int) "counts only its site" 2 (Faultinj.hits "eval/round");
  (match Faultinj.hit "eval/round" with
  | _ -> Alcotest.fail "third visit should fire"
  | exception Faultinj.Injected { site; hit } ->
    Alcotest.(check string) "site" "eval/round" site;
    Alcotest.(check int) "1-based visit count" 3 hit);
  Faultinj.disarm ();
  Faultinj.hit "eval/round";
  Alcotest.(check bool) "disarmed" false (Faultinj.is_armed ())

let test_faultinj_from_env () =
  Unix.putenv "RECALG_FAULTS" "pool/task:1,malformed,also:bad:entry";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "RECALG_FAULTS" "";
      Faultinj.disarm ())
    (fun () ->
      Faultinj.from_env ();
      Alcotest.(check bool) "armed from env" true (Faultinj.is_armed ());
      Faultinj.hit "pool/task";
      match Faultinj.hit "pool/task" with
      | _ -> Alcotest.fail "second visit should fire"
      | exception Faultinj.Injected { site; _ } ->
        Alcotest.(check string) "site from env" "pool/task" site)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_safe_io_atomic () =
  let path = Filename.temp_file "recalg_chaos_safeio" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Safe_io.with_file path (fun oc -> output_string oc "original");
      (* A writer that fails mid-stream must leave the previous
         contents intact — the torn write dies with the tmp file. *)
      (match
         Safe_io.with_file path (fun oc ->
             output_string oc "partial";
             failwith "boom")
       with
      | _ -> Alcotest.fail "expected the writer's failure"
      | exception Failure _ -> ());
      Alcotest.(check string) "failed write left the original" "original"
        (read_file path);
      (* Same through the injection point. *)
      Faultinj.arm ~site:"io/write" ~after:0;
      (match Safe_io.with_file path (fun oc -> output_string oc "injected") with
      | _ -> Alcotest.fail "expected Injected"
      | exception Faultinj.Injected _ -> ());
      Faultinj.disarm ();
      Alcotest.(check string) "injected write left the original" "original"
        (read_file path);
      Safe_io.with_file path (fun oc -> output_string oc "replaced");
      Alcotest.(check string) "clean write replaces" "replaced" (read_file path);
      (* No tmp litter in the directory. *)
      let dir = Filename.dirname path and base = Filename.basename path in
      let litter =
        Array.exists
          (fun f ->
            String.length f > String.length base
            && String.sub f 0 (String.length base) = base)
          (Sys.readdir dir)
      in
      Alcotest.(check bool) "no tmp litter" false litter)

let suite =
  [
    Alcotest.test_case "fault sweep: sites x engines" `Quick test_sweep;
    Alcotest.test_case "every signature site is visited" `Quick
      test_sites_visited;
    QCheck_alcotest.to_alcotest prop_dl_abort_atomic;
    QCheck_alcotest.to_alcotest prop_alg_abort_atomic;
    QCheck_alcotest.to_alcotest prop_live_abort_atomic;
    QCheck_alcotest.to_alcotest prop_governed_equals_plain;
    Alcotest.test_case "timeout interrupts a divergent fixpoint" `Quick
      test_timeout_interrupts_divergence;
    Alcotest.test_case "cancellation interrupts a divergent fixpoint" `Quick
      test_cancellation_interrupts_divergence;
    Alcotest.test_case "memory ceiling interrupts a divergent fixpoint" `Quick
      test_memory_ceiling_interrupts_divergence;
    Alcotest.test_case "degraded IFP returns a sound subset" `Quick
      test_degrade_returns_subset;
    Alcotest.test_case "degraded IFP only where the answer grows with it" `Quick
      test_degrade_only_where_monotone;
    Alcotest.test_case "degraded stratified run is a sound prefix" `Quick
      test_degrade_stratified_prefix;
    Alcotest.test_case "incremental promotes degradation to abort" `Quick
      test_incremental_promotes_degradation;
    Alcotest.test_case "faultinj arming and counting" `Quick
      test_faultinj_arming;
    Alcotest.test_case "faultinj RECALG_FAULTS parsing" `Quick
      test_faultinj_from_env;
    Alcotest.test_case "safe_io is atomic under faults" `Quick
      test_safe_io_atomic;
  ]

(* The adapter: every call the benchmark makes into recalg is in this
   file. They are the public entry points the CLI drives, plus the
   membership probes and the counters the lookups and the per-layer
   metrics read. Nothing here names an ablation baseline (naive deltas,
   unfused joins, hash-consing off, greedy planning), so removing one from
   the library does not touch the benchmark. Inputs arrive as text or
   plain OCaml data from [Gen]; the rest of the benchmark handles library
   values only as opaque results to pass back in here. *)

open Recalg

type answer = Yes | No | Unknown

let answer_of_tvl = function Tvl.True -> Yes | Tvl.False -> No | Tvl.Undef -> Unknown
let answer_of_bool b = if b then Yes else No

(* One budget per request, as the CLI builds one per run; large enough
   that no workload here can exhaust it. *)
let budget () = Limits.of_int max_int
let spent fuel = max_int - Option.value (Limits.remaining fuel) ~default:max_int

(* --- kernel ------------------------------------------------------- *)

type value = Value.t

let rec value_of_tree = function
  | Gen.I i -> Value.int i
  | Gen.T xs -> Value.tuple (List.map value_of_tree xs)

let rec tree_of_value v =
  match Value.node v with
  | Value.Int i -> Gen.I i
  | Value.Tuple xs -> Gen.T (List.map tree_of_value xs)
  | _ -> invalid_arg ("unexpected value " ^ Value.to_string v)

type intern = { hits : int; misses : int; live : int }

let intern () =
  let s = Value.Stats.snapshot () in
  { hits = s.Value.Stats.hits; misses = s.Value.Stats.misses; live = s.Value.Stats.live }

let mem probe set = answer_of_bool (Value.mem probe set)
let elements set = List.map tree_of_value (Value.elements set)

(* --- registry counters (collected in traced blocks only) ----------- *)

let collect on = Obs.Metrics.set_collecting on
let reset_counters () = Obs.Metrics.reset ()

let counters names =
  let sn = Obs.Metrics.snapshot () in
  List.map (fun n -> (n, Obs.Metrics.counter_total sn n)) names

let counter_max name =
  Obs.Metrics.counter_quantile (Obs.Metrics.snapshot ()) name 1.0

(* --- algebra= programs (tc-alg), as [recalg alg] runs them --------- *)

let alg_parse text =
  match Algebra.Parser.parse_program text with
  | Ok p -> p.Algebra.Parser.defs
  | Error e -> failwith ("algebra parse: " ^ e)

let alg_solve ~fuel defs = Algebra.Rec_eval.solve ~fuel defs Algebra.Db.empty
let alg_constant sol name = Algebra.Rec_eval.constant sol name
let alg_rounds sol = Algebra.Rec_eval.rounds sol
let alg_print vs = Fmt.str "@[<h>%a@]" Algebra.Rec_eval.pp_vset vs
let alg_member vs probe = answer_of_tvl (Algebra.Rec_eval.member vs probe)

(* --- deductive programs (win-valid, tc-update) --------------------- *)

let dl_parse text =
  match Datalog.Parser.parse text with
  | Ok p -> p
  | Error e -> failwith ("datalog parse: " ^ e)

let dl_ground ~fuel (program, edb) =
  Datalog.Grounder.ground ~fuel program edb

let dl_valid pg = Datalog.Valid.solve pg

(* Byte for byte what [recalg run] prints. *)
let dl_print interp =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  List.iter
    (fun pred ->
      let show label tuples =
        List.iter
          (fun args ->
            Fmt.pf ppf "@[<h>%s%s(%a)@]@." label pred
              Fmt.(list ~sep:(any ", ") Value.pp)
              args)
          tuples
      in
      show "" (Datalog.Interp.true_tuples interp pred);
      show "undef: " (Datalog.Interp.undef_tuples interp pred))
    (Datalog.Interp.preds interp);
  Buffer.contents b

let dl_holds interp pred args = answer_of_tvl (Datalog.Interp.holds interp pred args)

(* --- joins under the cost planner (join-plan) ----------------------- *)

let db_of_rels rels =
  Algebra.Db.of_list
    (List.map (fun (name, tuples) -> (name, List.map value_of_tree tuples)) rels)

let plan_stats db = Plan.Stats.of_db db
let planner stats = Plan.Planner.create ~stats Plan.Planner.Cost

(* The planner's rewrite is the public [Advice.rewrite] hook; wrapping it
   is how the benchmark times planning inside [Eval.eval]. *)
let eval ~fuel ~around_rewrite planner db expr =
  let advice = Plan.Planner.advice planner in
  let advice =
    { advice with
      Algebra.Advice.rewrite =
        (fun e -> around_rewrite (fun () -> advice.Algebra.Advice.rewrite e)) }
  in
  Algebra.Eval.eval ~fuel ~advice (Algebra.Defs.make []) db expr

type plan_report = {
  reordered : bool;
  semijoins : int;
  est_cost_original : float;
  est_cost_chosen : float;
  est_out : float;
}

let reports planner =
  List.map
    (fun (r : Plan.Planner.join_report) ->
      { reordered = r.Plan.Planner.reordered;
        semijoins = r.Plan.Planner.semijoins;
        est_cost_original = r.Plan.Planner.est_cost_original;
        est_cost_chosen = r.Plan.Planner.est_cost_chosen;
        est_out = r.Plan.Planner.est_out })
    (Plan.Planner.reports planner)

(* The three E14 shapes, written in the order a naive translation
   produces them. Relation names are fixed by [Gen.join_rels]. *)
let expr shape =
  let open Algebra.Expr in
  let cc a b = Algebra.Efun.Compose (a, b) and p i = Algebra.Efun.Proj i in
  let eq a b = Algebra.Pred.Eq (a, b) in
  match (shape : Gen.shape) with
  | Star ->
    (* h1.2 = t.1 and h2.2 = t.2 over (h1 x h2) x t *)
    select
      (Algebra.Pred.And
         ( eq (cc (p 2) (cc (p 1) (p 1))) (cc (p 1) (p 2)),
           eq (cc (p 2) (cc (p 2) (p 1))) (cc (p 2) (p 2)) ))
      (product (product (rel "h1") (rel "h2")) (rel "t"))
  | Chain -> (
    (* prev.2 = next.1 along c1..c6, projected onto c1 *)
    match List.map rel [ "c1"; "c2"; "c3"; "c4"; "c5"; "c6" ] with
    | r1 :: r2 :: rest ->
      let first = select (eq (cc (p 2) (p 1)) (cc (p 1) (p 2))) (product r1 r2) in
      let joined =
        List.fold_left
          (fun acc r ->
            select (eq (cc (p 2) (cc (p 2) (p 1))) (cc (p 1) (p 2))) (product acc r))
          first rest
      in
      map (cc (p 1) (cc (p 1) (cc (p 1) (cc (p 1) (p 1))))) joined
    | _ -> assert false)
  | Semi ->
    (* sa.2 = sb.1, projected onto sa *)
    map (p 1) (select (eq (cc (p 2) (p 1)) (cc (p 1) (p 2))) (product (rel "sa") (rel "sb")))

(* --- stratified maintenance (tc-update) ---------------------------- *)

type batch = Datalog.Edb.Update.t

let tc_program = lazy (fst (dl_parse "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z)."))
let edge_fact (a, b) = [ Value.int a; Value.int b ]

let edb_of_edges edges =
  List.fold_left (fun edb e -> Datalog.Edb.add "e" (edge_fact e) edb) Datalog.Edb.empty edges

let incr_init ~fuel edges =
  match Datalog.Incremental.init ~fuel (Lazy.force tc_program) (edb_of_edges edges) with
  | Ok t -> t
  | Error e -> failwith ("incremental init: " ^ e)

let batch ~insert edges =
  Datalog.Edb.Update.of_facts (List.map (fun e -> (insert, "e", edge_fact e)) edges)

let incr_update t b = ignore (Datalog.Incremental.update t b)
let incr_holds t (a, b) = answer_of_bool (Datalog.Incremental.holds t "t" (edge_fact (a, b)))

(* The maintained state against a fresh stratified run on the
   maintained EDB, and that EDB against the benchmark's own edge set. *)
let incr_consistent t edges =
  let edb = Datalog.Incremental.edb t in
  Datalog.Edb.equal edb (edb_of_edges edges)
  &&
  match Datalog.Run.stratified ~fuel:(budget ()) (Lazy.force tc_program) edb with
  | Ok fresh -> Datalog.Edb.equal fresh (Datalog.Incremental.result t)
  | Error _ -> false

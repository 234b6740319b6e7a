(* The four workloads. Each is a pool of distinct requests, generated
   from the seed, and a schedule that visits the pool in blocks: a block
   holds one request of every stratum (input size, or batch size for
   tc-update) in a seeded order. A request runs inside [Trace.request]
   and leaves the engine as it found it (tc-update refills the edges it
   deleted), so every request can be repeated; its answers are checked
   afterwards against [Oracle], outside every span. *)

type outcome = {
  latency_ns : int;  (** the request as its caller waits for it *)
  lookups_ns : int array;  (** each lookup timed on its own *)
  attempted : int;  (** operations: the request, its lookups, extra checks *)
  failed : int;  (** wrong answers among them *)
  fuel : int;
}

type t = {
  name : string;
  keys : int;  (** distinct requests in the pool *)
  block : int;  (** requests per block *)
  schedule : int -> int;  (** the pool key of the i-th request *)
  setup : unit -> int * int * int;
      (** one repetition of the set-up calls: nanoseconds spent in them,
          operations attempted, failed *)
  request : int -> outcome;  (** run the request with this key *)
  finish : unit -> int * int;  (** final checks: attempted, failed *)
  counters : string list;  (** registry counters behind this workload's layers *)
  details : unit -> (string * float) list;  (** means over traced requests *)
}

let wrong ok = if ok then 0 else 1

let mismatches answers expected =
  let bad = ref 0 in
  Array.iteri (fun k a -> if a <> expected.(k) then incr bad) answers;
  !bad

(* Each probe in its own span, so each is timed on its own. *)
let lookups span_name probe count =
  let ns = Array.make count 0 and answers = Array.make count Engine.No in
  for k = 0 to count - 1 do
    let a, t = Trace.span span_name (fun () -> probe k) in
    answers.(k) <- a;
    ns.(k) <- t
  done;
  (ns, answers)

(* Block [i / strata] runs every stratum of pool copy [block mod copies]
   once, in a seeded order; the key is [copy * strata + stratum]. *)
let pooled seed ~strata ~copies =
  let cache = ref (-1, [||]) in
  fun i ->
    let b = i / strata in
    if fst !cache <> b then
      cache := (b, Gen.shuffle (Gen.rng seed (100_000 + b)) (Array.init strata Fun.id));
    ((b mod copies) * strata) + (snd !cache).(i mod strata)

(* Means of detail values recorded while tracing. *)
let details () =
  let sums = Hashtbl.create 8 and order = ref [] in
  let add k v =
    if !Trace.on then begin
      let s, n = Option.value (Hashtbl.find_opt sums k) ~default:(0., 0) in
      if n = 0 then order := k :: !order;
      Hashtbl.replace sums k (s +. v, n + 1)
    end
  and means () =
    List.rev_map
      (fun k ->
        let s, n = Hashtbl.find sums k in
        (k, s /. float_of_int n))
      !order
  in
  (add, means)

(* Three warm-up requests as set-up: the three smallest strata. *)
let warm_up run =
  List.fold_left
    (fun (ns, a, b) k ->
      let o = run k in
      (ns + o.latency_ns + Array.fold_left ( + ) 0 o.lookups_ns, a + o.attempted, b + o.failed))
    (0, 0, 0) [ 0; 1; 2 ]

let ms ns = float_of_int ns /. 1e6

(* --- tc-alg ---------------------------------------------------------- *)

type chain_query = {
  text : string;
  printout : string;
  probes : Engine.value array;
  member : Engine.answer array;
}

let tc_alg ~seed =
  let gen = Gen.rng seed 1 and strata = Array.length Gen.chain_strata in
  let pool =
    Array.map
      (fun nodes ->
        let edges = Gen.chain nodes in
        let pairs = Oracle.closure nodes edges in
        let closed = Hashtbl.create 4096 in
        List.iter (fun (a, b) -> Hashtbl.replace closed (Gen.pair a b) ()) pairs;
        let present = Array.of_list (List.map (fun (a, b) -> Gen.pair a b) pairs) in
        let probes = Gen.probes gen present ~count:256 in
        { text = Gen.chain_text edges;
          printout = Oracle.closure_text pairs;
          probes = Array.map Engine.value_of_tree probes;
          member = Array.map (fun p -> if Hashtbl.mem closed p then Engine.Yes else Engine.No) probes })
      Gen.chain_strata
  in
  let add, means = details () in
  let run key =
    let q = pool.(key) and fuel = Engine.budget () in
    let printout, query_ns, (lookups_ns, answers) =
      Trace.request (fun () ->
          let t0 = Trace.now () in
          let defs, _ = Trace.span "algebra.parse" (fun () -> Engine.alg_parse q.text) in
          let sol, _ = Trace.span "algebra.solve" (fun () -> Engine.alg_solve ~fuel defs) in
          let (tc, printout), _ =
            Trace.span "algebra.print" (fun () ->
                let tc = Engine.alg_constant sol "tc" in
                (tc, Engine.alg_print tc))
          in
          let query_ns = Trace.now () - t0 in
          add "algebra.rounds" (float_of_int (Engine.alg_rounds sol));
          ( printout,
            query_ns,
            lookups "kernel.member" (fun k -> Engine.alg_member tc q.probes.(k)) (Array.length q.probes) ))
    in
    add "algebra.output_bytes" (float_of_int (String.length printout));
    { latency_ns = query_ns;
      lookups_ns;
      attempted = 1 + Array.length answers;
      failed = wrong (printout = q.printout) + mismatches answers q.member;
      fuel = Engine.spent fuel }
  in
  { name = "tc-alg";
    keys = strata;
    block = strata;
    schedule = pooled seed ~strata ~copies:1;
    setup = (fun () -> warm_up run);
    request = run;
    finish = (fun () -> (0, 0));
    counters =
      [ "rec_eval/round"; "rec_eval/phase_iter"; "rec_eval/ifp_iter"; "rec_eval/delta";
        "join/build"; "join/probe"; "join/out" ];
    details = means }

(* --- win-valid ------------------------------------------------------- *)

type game = {
  g_text : string;
  g_printout : string;
  g_probes : Engine.value list array;
  g_labels : Engine.answer array;
}

(* [recalg run FILE] with RECALG_* variables removed from its
   environment; returns its standard output and whether it exited 0. *)
let run_cli cli file =
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"RECALG_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env cli [| cli; "run"; file |] env Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (out, status = Unix.WEXITED 0)

let win_valid ~seed ~cli ~dir =
  let gen = Gen.rng seed 2 and strata = Array.length Gen.game_strata and copies = 10 in
  let pool =
    Array.init (strata * copies) (fun key ->
        let positions = Gen.game_strata.(key mod strata) in
        let moves = Gen.game gen positions in
        let label = Oracle.win_labels positions moves in
        let probes = Array.init 16 (fun _ -> Random.State.int gen positions) in
        { g_text = Gen.game_text moves;
          g_printout = Oracle.win_text moves label;
          g_probes = Array.map (fun p -> [ Engine.value_of_tree (Gen.I p) ]) probes;
          g_labels =
            Array.map
              (fun p ->
                match label.(p) with
                | Oracle.Won -> Engine.Yes
                | Oracle.Lost -> Engine.No
                | Oracle.Drawn -> Engine.Unknown)
              probes })
  in
  let add, means = details () in
  let file = Filename.concat dir "win-valid.dl" in
  let run g =
    let fuel = Engine.budget () in
    let printout, query_ns, (lookups_ns, answers) =
      Trace.request (fun () ->
          let t0 = Trace.now () in
          let program, _ = Trace.span "datalog.parse" (fun () -> Engine.dl_parse g.g_text) in
          let pg, _ = Trace.span "datalog.ground" (fun () -> Engine.dl_ground ~fuel program) in
          let interp, _ = Trace.span "datalog.solve" (fun () -> Engine.dl_valid pg) in
          let printout, _ = Trace.span "datalog.print" (fun () -> Engine.dl_print interp) in
          let query_ns = Trace.now () - t0 in
          ( printout,
            query_ns,
            lookups "datalog.holds"
              (fun k -> Engine.dl_holds interp "win" g.g_probes.(k))
              (Array.length g.g_probes) ))
    in
    add "datalog.output_bytes" (float_of_int (String.length printout));
    ( printout,
      { latency_ns = query_ns;
        lookups_ns;
        attempted = 1 + Array.length answers;
        failed = wrong (printout = g.g_printout) + mismatches answers g.g_labels;
        fuel = Engine.spent fuel } )
  in
  let requests = ref 0 in
  (* Every 20th request also goes through the real binary, whose output
     must match the in-process printout byte for byte. *)
  let request key =
    let g = pool.(key) in
    let printout, o = run g in
    incr requests;
    if !requests mod 20 <> 0 then o
    else begin
      Out_channel.with_open_bin file (fun oc -> output_string oc g.g_text);
      let (out, ok), cli_ns = Trace.span "bin.cli" (fun () -> run_cli cli file) in
      add "cli.wall_ms" (ms cli_ns);
      add "cli.overhead_ms" (ms (cli_ns - o.latency_ns));
      { o with attempted = o.attempted + 1; failed = o.failed + wrong (ok && out = printout) }
    end
  in
  { name = "win-valid";
    keys = strata * copies;
    block = strata;
    schedule = pooled seed ~strata ~copies;
    setup = (fun () -> warm_up (fun k -> snd (run pool.(k))));
    request;
    finish = (fun () -> (0, 0));
    counters = [ "ground/round"; "ground/atoms"; "ground/rules"; "valid/round"; "valid/new_true"; "valid/false" ];
    details = means }

(* --- join-plan ------------------------------------------------------- *)

type join_query = {
  shape : Gen.shape;
  rels : (string * Gen.tree list) list;
  expected : string;
  j_probes : Engine.value array;
  j_member : Engine.answer array;
}

let join_plan ~seed =
  let gen = Gen.rng seed 3 and strata = Array.length Gen.join_strata in
  let pool =
    Array.map
      (fun ((shape, _) as stratum) ->
        let rels = Gen.join_rels stratum in
        let expected = Oracle.join shape rels in
        let present = Hashtbl.create 4096 in
        List.iter (fun x -> Hashtbl.replace present x ()) expected;
        let probes = Gen.probes gen (Array.of_list expected) ~count:32 in
        { shape;
          rels;
          expected = Gen.render expected;
          j_probes = Array.map Engine.value_of_tree probes;
          j_member = Array.map (fun p -> if Hashtbl.mem present p then Engine.Yes else Engine.No) probes })
      Gen.join_strata
  in
  let exprs = List.map (fun s -> (s, Engine.expr s)) [ Gen.Star; Gen.Chain; Gen.Semi ] in
  let add, means = details () in
  let run key =
    let q = pool.(key) and fuel = Engine.budget () in
    let (result, planner), query_ns, (lookups_ns, answers) =
      Trace.request (fun () ->
          let t0 = Trace.now () in
          let db, _ = Trace.span "algebra.load" (fun () -> Engine.db_of_rels q.rels) in
          let stats, _ = Trace.span "plan.stats" (fun () -> Engine.plan_stats db) in
          let planner, _ = Trace.span "plan.create" (fun () -> Engine.planner stats) in
          let result, _ =
            Trace.span "algebra.eval" (fun () ->
                Engine.eval ~fuel
                  ~around_rewrite:(fun f -> fst (Trace.span "plan.rewrite" f))
                  planner db (List.assoc q.shape exprs))
          in
          let query_ns = Trace.now () - t0 in
          ( (result, planner),
            query_ns,
            lookups "kernel.mem" (fun k -> Engine.mem q.j_probes.(k) result) (Array.length q.j_probes) ))
    in
    let answer = List.sort compare (Engine.elements result) in
    if !Trace.on then begin
      let actual = float_of_int (max 1 (List.length answer)) in
      List.iter
        (fun (r : Engine.plan_report) ->
          add "plan.reordered" (if r.Engine.reordered then 1. else 0.);
          add "plan.semijoins" (float_of_int r.Engine.semijoins);
          add "plan.est_cost_ratio" (r.Engine.est_cost_chosen /. r.Engine.est_cost_original);
          let est = Float.max 1. r.Engine.est_out in
          add "plan.qerror" (Float.max (est /. actual) (actual /. est)))
        (Engine.reports planner)
    end;
    { latency_ns = query_ns;
      lookups_ns;
      attempted = 1 + Array.length answers;
      failed = wrong (Gen.render answer = q.expected) + mismatches answers q.j_member;
      fuel = Engine.spent fuel }
  in
  { name = "join-plan";
    keys = strata;
    block = strata;
    schedule = pooled seed ~strata ~copies:1;
    setup = (fun () -> warm_up run);
    request = run;
    finish = (fun () -> (0, 0));
    counters = [ "plan/region"; "plan/reorder"; "plan/semijoin"; "join/build"; "join/probe"; "join/out" ];
    details =
      (fun () ->
        means ()
        @ [ ("algebra.peak_intermediate",
             float_of_int (max (Engine.counter_max "join/out") (Engine.counter_max "eval/product_out"))) ]) }

(* --- tc-update ------------------------------------------------------- *)

type churn = {
  dropped : Engine.batch;  (** deletes the victim edges *)
  refill : Engine.batch;  (** inserts them again *)
  reads_dropped : (int * int) array;  (** read after the delete *)
  expect_dropped : Engine.answer array;
  reads_full : (int * int) array;  (** read after the refill *)
  expect_full : Engine.answer array;
  removed : int;  (** facts the delete takes out of the materialization *)
}

(* The materialization of the closure over [edges]: its size in facts
   and a reader for the derived pairs. *)
let reach edges =
  let adj = Oracle.adjacency Gen.dag_nodes edges in
  let rows = Array.init Gen.dag_nodes (Oracle.reachable adj) in
  let count r = Array.fold_left (fun n b -> if b then n + 1 else n) 0 r in
  ( List.length edges + Array.fold_left (fun n r -> n + count r) 0 rows,
    fun (a, b) -> if rows.(a).(b) then Engine.Yes else Engine.No )

(* A request deletes k edges of the DAG in one batch (the DRed path) and
   refills them in a second, insert-only batch (the extend path); each
   batch is followed by 16 reads, and the edge count returns to 300.
   Per block of four, k is 1 three times and 16 once. The k = 1 victims
   are drawn from twelve bands of chain position, so deletions cover the
   chains the same way under every seed. *)
let tc_update ~seed =
  let gen = Gen.rng seed 4 in
  let edges = Gen.dag gen in
  let size, full = reach edges in
  let strata = 4 and copies = 4 in
  let bands = (strata - 1) * copies in
  let victims key =
    let copy = key / strata and s = key mod strata in
    if s = strata - 1 then Array.to_list (Array.sub (Gen.shuffle gen (Array.of_list edges)) 0 16)
    else
      let band = (copy * (strata - 1)) + s in
      let lo = band * (Gen.chain_length - 1) / bands and hi = (band + 1) * (Gen.chain_length - 1) / bands in
      let inside = List.filter (fun (a, _) -> a mod Gen.chain_length >= lo && a mod Gen.chain_length < hi) edges in
      [ List.nth inside (Random.State.int gen (List.length inside)) ]
  in
  let pool =
    Array.init (strata * copies) (fun key ->
        let victims = victims key in
        let size', dropped = reach (List.filter (fun e -> not (List.mem e victims)) edges) in
        let reads_dropped = Array.init 16 (fun _ -> Gen.read_pair gen) in
        let reads_full = Array.init 16 (fun _ -> Gen.read_pair gen) in
        { dropped = Engine.batch ~insert:false victims;
          refill = Engine.batch ~insert:true victims;
          reads_dropped;
          expect_dropped = Array.map dropped reads_dropped;
          reads_full;
          expect_full = Array.map full reads_full;
          removed = size - size' })
  in
  let state = ref None and fuel = ref (Engine.budget ()) in
  let handle () = Option.get !state in
  let removed = ref 0 and requests = ref 0 in
  let read t pairs = lookups "datalog.holds" (fun k -> Engine.incr_holds t pairs.(k)) (Array.length pairs) in
  let consistent () = (1, wrong (Engine.incr_consistent (handle ()) edges)) in
  let request key =
    let c = pool.(key) and t = handle () in
    let fuel0 = Engine.spent !fuel in
    let latency_ns, (l1, a1), (l2, a2) =
      Trace.request (fun () ->
          let (), del_ns = Trace.span "datalog.delete" (fun () -> Engine.incr_update t c.dropped) in
          let r1 = read t c.reads_dropped in
          let (), ins_ns = Trace.span "datalog.insert" (fun () -> Engine.incr_update t c.refill) in
          let r2 = read t c.reads_full in
          (del_ns + ins_ns, r1, r2))
    in
    if !Trace.on then removed := !removed + c.removed;
    incr requests;
    (* every 50 batches, the state against a fresh run *)
    let check_a, check_f = if !requests mod 25 = 0 then consistent () else (0, 0) in
    { latency_ns;
      lookups_ns = Array.append l1 l2;
      attempted = 1 + Array.length a1 + Array.length a2 + check_a;
      failed = mismatches a1 c.expect_dropped + mismatches a2 c.expect_full + check_f;
      fuel = Engine.spent !fuel - fuel0 }
  in
  { name = "tc-update";
    keys = strata * copies;
    block = strata;
    schedule = pooled seed ~strata ~copies;
    (* set-up is materialising the closure of the DAG *)
    setup =
      (fun () ->
        fuel := Engine.budget ();
        let t, ns = Trace.span "datalog.init" (fun () -> Engine.incr_init ~fuel:!fuel edges) in
        state := Some t;
        (ns, 0, 0));
    request;
    finish = consistent;
    counters = [ "incr/extend"; "incr/dred"; "incr/recompute"; "incr/dred_round"; "incr/dred_deleted"; "seminaive/derived" ];
    details =
      (fun () ->
        let overdeleted = List.assoc "incr/dred_deleted" (Engine.counters [ "incr/dred_deleted" ]) in
        [ ("datalog.dred_useful_ratio", float_of_int !removed /. float_of_int (max 1 overdeleted)) ]) }

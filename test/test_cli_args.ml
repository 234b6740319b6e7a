(* The CLI's contracts, end to end: each test runs the built
   [recalg_cli.exe] and checks its exit code, its output or the files it
   writes. Argument parity pins that every subcommand documents the
   shared switches identically (they all route through
   Common_args.term), and that the planner's flags stay on [alg]. *)

open Recalg

let exe_candidates =
  [
    "../bin/recalg_cli.exe";            (* dune runtest: cwd = _build/default/test *)
    "_build/default/bin/recalg_cli.exe"; (* dune exec from the repo root *)
    "bin/recalg_cli.exe";
  ]

(* [f exe] on the built CLI, skipped when there is none. *)
let with_exe f () =
  match List.find_opt Sys.file_exists exe_candidates with
  | None -> Alcotest.skip ()
  | Some exe -> f exe

let remove path = try Sys.remove path with Sys_error _ -> ()

(* [f path] on a fresh temporary file holding [contents]. The file and
   the [.json] beside it that [--metrics] writes are removed after. *)
let with_file suffix contents f =
  let path = Filename.temp_file "recalg_cli" suffix in
  Fun.protect
    ~finally:(fun () -> List.iter remove [ path; path ^ ".json" ])
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let read path = In_channel.with_open_bin path In_channel.input_all

(* The exit code, stdout and stderr of [exe args], with [env] (shell
   assignments such as [VAR=value]) prefixed to the command. *)
let capture ?(env = "") exe args =
  with_file ".out" "" @@ fun out ->
  with_file ".err" "" @@ fun err ->
  let rc =
    Sys.command
      (Printf.sprintf "%s %s %s > %s 2> %s" env (Filename.quote exe) args
         (Filename.quote out) (Filename.quote err))
  in
  (rc, read out, read err)

let matches re text =
  match Str.search_forward (Str.regexp re) text 0 with
  | _ -> true
  | exception Not_found -> false

let contains ~needle hay = matches (Str.quote needle) hay

let expect ~needle what hay =
  if not (contains ~needle hay) then Alcotest.failf "%s lacks %S:\n%s" what needle hay

let expect_line re what text =
  if not (matches re text) then Alcotest.failf "%s has no line /%s/:\n%s" what re text

(* dune runtest runs in _build/default/test, dune exec at the root. *)
let example_dir =
  if Sys.file_exists "examples/programs" then "examples/programs"
  else "../examples/programs"

let examples suffix =
  List.filter_map
    (fun f ->
      if Filename.check_suffix f suffix then Some (Filename.concat example_dir f)
      else None)
    (List.sort compare (Array.to_list (Sys.readdir example_dir)))

let win_game = Filename.concat example_dir "win_game.dl"

let verbs = [ "run"; "alg"; "query"; "update"; "check"; "translate"; "report" ]

let shared_flags =
  [ "--fuel"; "--trace"; "--profile"; "--metrics"; "--domains"; "--timeout";
    "--memory-limit"; "--degrade" ]

(* Documented as options ([--plan=MODE]), not only named in prose. *)
let planner_flags = [ "--plan=" ]

let test_parity exe =
  List.iter
    (fun verb ->
      let rc, help, _ = capture exe (verb ^ " --help=plain") in
      if rc <> 0 then Alcotest.failf "%s --help exited %d" verb rc;
      List.iter
        (fun flag ->
          if not (contains ~needle:flag help) then
            Alcotest.failf "verb %S does not document %s" verb flag)
        shared_flags;
      List.iter
        (fun flag ->
          if contains ~needle:flag help <> String.equal verb "alg" then
            Alcotest.failf "verb %S: %s documented %b" verb flag
              (contains ~needle:flag help))
        planner_flags)
    verbs;
  let rc, _, _ = capture exe ("run --plan cost " ^ Filename.quote win_game) in
  Alcotest.(check int) "run --plan cost is a usage error" 124 rc

let diverge = "p(z). p(s(X)) :- p(X).\n"

(* The documented exit-code contract, end to end: a divergent program
   (Peano) under a huge fuel budget but a short deadline exits 4; under
   a small fuel budget it exits 3. *)
let test_exit_codes exe =
  with_file ".dl" diverge @@ fun dl ->
  let run args = let rc, _, _ = capture exe ("run " ^ Filename.quote dl ^ args) in rc in
  Alcotest.(check int) "deadline exits 4" 4 (run " --fuel 1000000000 --timeout 100");
  Alcotest.(check int) "fuel exits 3" 3 (run " --fuel 1000");
  Alcotest.(check int) "degraded run reports the exhausted resource" 3
    (run " --fuel 1000 --degrade")

(* Thm 6.2 on the printed artifact: [translate f.dl] prints an [.alg]
   program that [alg] runs, and whose constants give each IDB predicate
   of [f.dl] its valid semantics -- the true tuples certain, the
   undefined ones possible. *)
let test_translate_runs_under_alg exe =
  let check_value = Alcotest.testable Value.pp Value.equal in
  let files = examples ".dl" in
  if files = [] then Alcotest.fail "no example programs";
  List.iter
    (fun path ->
      let f = Filename.basename path in
      let rc, out, _ = capture exe ("translate " ^ Filename.quote path) in
      Alcotest.(check int) (f ^ ": translate exit code") 0 rc;
      with_file ".alg" out (fun alg ->
          let rc, _, _ = capture exe ("alg " ^ Filename.quote alg) in
          Alcotest.(check int) (f ^ ": alg exit code") 0 rc);
      let sol =
        match Algebra.Parser.parse_program out with
        | Ok p -> Algebra.Rec_eval.solve p.Algebra.Parser.defs Algebra.Db.empty
        | Error msg -> Alcotest.failf "%s: %s" f msg
      in
      let program, edb = Datalog.Parser.parse_exn (read path) in
      let interp = Datalog.Run.valid program edb in
      List.iter
        (fun pred ->
          let set tuples = Value.set (List.map Value.tuple tuples) in
          let t = Datalog.Interp.true_tuples interp pred
          and u = Datalog.Interp.undef_tuples interp pred in
          let v = Algebra.Rec_eval.constant sol pred in
          Alcotest.check check_value (f ^ ": certain " ^ pred) (set t)
            v.Algebra.Rec_eval.low;
          Alcotest.check check_value (f ^ ": possible " ^ pred) (set (t @ u))
            v.Algebra.Rec_eval.high)
        (Datalog.Program.idb_preds program))
    files

(* A translation naming a reserved word is refused whole: exit 1 and
   nothing on stdout. *)
let test_translate_refuses_reserved exe =
  with_file ".dl" "e(a, b). p(X) :- e(X, Y), Y = id.\n" @@ fun dl ->
  let rc, out, _ = capture exe ("translate " ^ Filename.quote dl) in
  Alcotest.(check int) "exit code" 1 rc;
  Alcotest.(check string) "stdout" "" out

(* An unsafe program is a reported error on every verb that evaluates
   or translates it: exit 1 and an [error: unsafe program] line, whether
   the verb checks safety up front or an engine finds a body with no
   evaluable order. *)
let test_unsafe_exits_1 exe =
  with_file ".dl" "q(a). p(X) :- not q(X).\n" @@ fun dl ->
  with_file ".upd" "+q(b).\n" @@ fun upd ->
  let file = Filename.quote dl and updates = Filename.quote upd in
  let under verb rest sems =
    List.map
      (fun s ->
        ( verb ^ " --semantics " ^ s,
          Printf.sprintf "%s --semantics %s %s%s" verb s file rest ))
      sems
  in
  let three = [ "valid"; "wellfounded"; "inflationary" ] in
  List.iter
    (fun (label, args) ->
      let rc, _, stderr = capture exe args in
      Alcotest.(check int) (label ^ ": exit code") 1 rc;
      if not (String.starts_with ~prefix:"error: unsafe program" stderr) then
        Alcotest.failf "%s: stderr %S" label stderr)
    (under "run" "" (three @ [ "stable"; "stratified" ])
    @ under "update" (" " ^ updates) ("stratified" :: three)
    @ under "report" "" (three @ [ "stratified" ])
    @ [ ("query", Printf.sprintf "query %s 'p(X)'" file);
        ("translate", "translate " ^ file) ])

(* The integer after ["key":] in one JSON line, if any. *)
let int_field key line =
  let re = Str.regexp (Printf.sprintf {|"%s": *\([0-9]+\)|} key) in
  match Str.search_forward re line 0 with
  | _ -> Some (int_of_string (Str.matched_group 1 line))
  | exception Not_found -> None

(* [--trace F] writes one JSON event per line. Every event names its
   span, counter and time; span events carry their [sid], and each
   [span_begin] its [parent] and a [sid] above every earlier one. *)
let test_trace_schema exe =
  with_file ".jsonl" "" @@ fun trace ->
  let rc, _, _ =
    capture exe (Printf.sprintf "run %s --trace %s" win_game (Filename.quote trace))
  in
  Alcotest.(check int) "exit code" 0 rc;
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (read trace)) in
  let last_sid =
    List.fold_left
      (fun last line ->
        List.iter
          (fun key -> expect ~needle:(Printf.sprintf "%S:" key) "trace event" line)
          [ "span"; "counter"; "at" ];
        let sid = int_field "sid" line in
        if matches {|"ev": *"span_\(begin\|end\)"|} line && sid = None then
          Alcotest.failf "span event without a sid: %s" line;
        if matches {|"ev": *"span_begin"|} line then begin
          if int_field "parent" line = None then
            Alcotest.failf "span_begin without a parent: %s" line;
          let sid = Option.get sid in
          if sid <= last then Alcotest.failf "sid %d after %d: %s" sid last line;
          sid
        end
        else last)
      0 lines
  in
  if last_sid = 0 then Alcotest.fail "no span_begin event in the trace"

(* [--plan cost --profile] prints the planner's EXPLAIN blocks, and the
   triangle's crossed join is reordered. *)
let test_explain exe =
  let triangle = Filename.concat example_dir "triangle.alg" in
  let rc, _, err = capture exe ("alg " ^ triangle ^ " --plan cost --profile") in
  Alcotest.(check int) "exit code" 0 rc;
  expect ~needle:"reordered=true" "stderr" err

(* tc-alg's largest request: the closure of a 144-node chain with 8
   shortcuts is 10,296 pairs on one ~108 KB line, far longer than any
   example prints. [alg] must print it as a BFS closure renders it. *)
let test_closure_10k exe =
  let n = 144 in
  let shortcuts =
    List.init 8 (fun k ->
        let a = 2 * ((2 * k + 1) * n / 32) in
        (a, a + 2))
  in
  let edges =
    List.sort_uniq compare (List.init (n - 1) (fun i -> (i, i + 1)) @ shortcuts)
  in
  let succ = Array.make n [] in
  List.iter (fun (a, b) -> succ.(a) <- b :: succ.(a)) edges;
  let reached x =
    let seen = Array.make n false in
    let rec visit = function
      | [] -> ()
      | y :: todo ->
        visit
          (List.fold_left
             (fun todo z -> if seen.(z) then todo else (seen.(z) <- true; z :: todo))
             todo succ.(y))
    in
    visit [ x ];
    List.filter (fun y -> seen.(y)) (List.init n Fun.id)
  in
  let pairs =
    List.concat_map
      (fun x -> List.map (fun y -> (x, y)) (reached x))
      (List.init n Fun.id)
  in
  Alcotest.(check int) "pairs in the closure" 10296 (List.length pairs);
  let show ps =
    String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "[%d, %d]" a b) ps)
  in
  let program =
    Printf.sprintf
      "let edge = {%s};\n\
       let tc = edge + map[[pi1 . pi1, pi2 . pi2]]\
       (sel[pi2 . pi1 = pi1 . pi2](edge x tc));\n"
      (show edges)
  in
  with_file ".alg" program @@ fun alg ->
  let rc, out, _ = capture exe ("alg " ^ Filename.quote alg) in
  Alcotest.(check int) "exit code" 0 rc;
  let expected = "tc = {" ^ show pairs ^ "}" in
  let lines = String.split_on_char '\n' out in
  match List.find_opt (String.starts_with ~prefix:"tc = ") lines with
  | None -> Alcotest.fail "no tc line"
  | Some line when not (String.equal line expected) ->
    Alcotest.failf "the tc line (%d bytes) differs from the BFS closure (%d bytes)"
      (String.length line) (String.length expected)
  | Some _ -> ()

(* A cost plan is result-exact: [alg] prints the same and exits the same
   under [--plan cost] as under [--plan off], on every example. The
   budget is 10,000 rather than the default 1,000,000: every example
   prints and exits the same under both (the most any converging one
   spends is even_ifp's 3001), and [even.alg] without a window, which
   diverges to exit 3, takes ~7 s per run at the default. *)
let test_plan_cost_is_exact exe =
  List.iter
    (fun path ->
      List.iter
        (fun window ->
          let args =
            Printf.sprintf "alg %s%s --fuel 10000 --plan " (Filename.quote path) window
          in
          let off_rc, off, _ = capture exe (args ^ "off")
          and cost_rc, cost, _ = capture exe (args ^ "cost") in
          let what = path ^ window in
          Alcotest.(check int) (what ^ ": exit code") off_rc cost_rc;
          Alcotest.(check string) (what ^ ": stdout") off cost)
        [ ""; " --window 20" ])
    (examples ".alg")

(* [RECALG_FAULTS] injects a fault into the CLI's run, which exits 1
   and names the site. *)
let test_injected_fault exe =
  with_file ".dl" diverge @@ fun dl ->
  let rc, _, err =
    capture ~env:"RECALG_FAULTS=ground/round:1" exe
      ("run " ^ Filename.quote dl ^ " --fuel 10000")
  in
  Alcotest.(check int) "exit code" 1 rc;
  expect ~needle:"injected fault at ground/round" "stderr" err

let prom_label = {|[a-zA-Z_][a-zA-Z0-9_]*="\([^"\]\|\\.\)*"|}

let prom_sample =
  Str.regexp
    ({|[a-zA-Z_:][a-zA-Z0-9_:]*\({|} ^ prom_label ^ {|\(,|} ^ prom_label
   ^ {|\)*}\)? [-+0-9.eEInfNa]+$|})

let prom_meta = Str.regexp {|# \(TYPE\|HELP\) [a-zA-Z_:][a-zA-Z0-9_:]* |}

(* The objects of the JSON array under [key], as the snapshot writes
   them: flat [{...}] rows. *)
let json_rows key text =
  ignore (Str.search_forward (Str.regexp_string (Printf.sprintf "%S: [" key)) text 0);
  let rec rows i acc =
    match text.[i] with
    | ' ' | '\n' | ',' -> rows (i + 1) acc
    | '{' ->
      let j = String.index_from text i '}' in
      rows (j + 1) (String.sub text i (j - i + 1) :: acc)
    | _ -> List.rev acc
  in
  rows (Str.match_end ()) []

(* [--metrics F] writes a Prometheus text exposition to F, whose every
   line is metadata or a sample and whose span histograms close with a
   [+Inf] bucket, and a JSON snapshot to F.json with counters, gauges
   and one row per span. *)
let test_metrics_files exe =
  with_file ".prom" "" @@ fun prom ->
  let rc, _, _ =
    capture exe (Printf.sprintf "run %s --metrics %s" win_game (Filename.quote prom))
  in
  Alcotest.(check int) "exit code" 0 rc;
  let meta = ref 0 and samples = ref 0 and inf = ref 0 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.starts_with ~prefix:"#" line then begin
        if not (Str.string_match prom_meta line 0) then
          Alcotest.failf "bad metadata line: %s" line;
        incr meta
      end
      else begin
        if not (Str.string_match prom_sample line 0) then
          Alcotest.failf "bad sample line: %s" line;
        incr samples;
        if contains ~needle:{|le="+Inf"|} line then incr inf
      end)
    (String.split_on_char '\n' (read prom));
  if !meta < 4 then Alcotest.failf "%d metadata lines" !meta;
  if !samples = 0 then Alcotest.fail "no samples";
  if !inf = 0 then Alcotest.fail "span latency histograms lack +Inf buckets";
  let snapshot = read (prom ^ ".json") in
  List.iter (fun key -> expect ~needle:(Printf.sprintf "%S:" key) "snapshot" snapshot)
    [ "counters"; "gauges" ];
  let spans = json_rows "spans" snapshot in
  if spans = [] then Alcotest.fail "no spans in the JSON snapshot";
  List.iter
    (fun row ->
      List.iter
        (fun key -> expect ~needle:(Printf.sprintf "%S:" key) "span row" row)
        [ "span"; "calls"; "wall_ms"; "fuel"; "alloc_words"; "p50_ms"; "p99_ms" ])
    spans

(* [report] prints the metrics report: both top-phase tables with their
   latency quantiles. *)
let test_report exe =
  let rc, out, _ = capture exe ("report " ^ win_game) in
  Alcotest.(check int) "exit code" 0 rc;
  List.iter
    (fun needle -> expect ~needle "report" out)
    [ "== metrics report =="; "-- top phases by wall time --";
      "-- top phases by fuel --"; "p50" ]

(* [--profile] prints the registry report on stderr: [valid] solves
   under one [wellfounded] span with one pass, and [alg] solves its
   program once, its rounds under one [rec_eval > round] path. *)
let test_profile_rows exe =
  let rc, _, err = capture exe ("run " ^ win_game ^ " --profile") in
  Alcotest.(check int) "run: exit code" 0 rc;
  expect ~needle:"== metrics report ==" "run --profile" err;
  expect_line "^run.valid > wellfounded +1 " "run --profile" err;
  expect_line "^wellfounded/passes +1 +1 " "run --profile" err;
  let even = Filename.concat example_dir "even.alg" in
  let rc, _, err = capture exe ("alg " ^ even ^ " --window 20 --profile") in
  Alcotest.(check int) "alg: exit code" 0 rc;
  expect_line "^rec_eval +1 " "alg --profile" err;
  expect_line "^rec_eval > round +[0-9]+ " "alg --profile" err

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick (with_exe f))
    [
      ("all verbs share --fuel/--trace/--profile", test_parity);
      ("resource exhaustion exit codes", test_exit_codes);
      ("translate prints a program alg runs (Thm 6.2)", test_translate_runs_under_alg);
      ("translate refuses a reserved word", test_translate_refuses_reserved);
      ("unsafe programs exit 1 on every verb", test_unsafe_exits_1);
      ("--trace writes a line-valid span tree", test_trace_schema);
      ("--plan cost --profile explains a reorder", test_explain);
      ("alg prints a 10,296-pair closure byte for byte", test_closure_10k);
      ("alg: --plan cost = --plan off", test_plan_cost_is_exact);
      ("injected fault exits 1 naming its site", test_injected_fault);
      ("--metrics writes a valid exposition and snapshot", test_metrics_files);
      ("report prints the top phases", test_report);
      ("--profile reports one solve", test_profile_rows);
    ]

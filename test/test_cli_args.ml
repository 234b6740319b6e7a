(* Argument parity across CLI verbs: every subcommand must document the
   shared evaluation switches (--fuel, --trace, --profile) identically —
   they all route through Common_args.term, and this pins that no verb
   drifts out of the shared block again. *)

open Recalg

let exe_candidates =
  [
    "../bin/recalg_cli.exe";            (* dune runtest: cwd = _build/default/test *)
    "_build/default/bin/recalg_cli.exe"; (* dune exec from the repo root *)
    "bin/recalg_cli.exe";
  ]

let find_exe () = List.find_opt Sys.file_exists exe_candidates

let help_text exe verb =
  let tmp = Filename.temp_file "recalg_help" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s --help=plain > %s 2>&1"
          (Filename.quote exe) verb (Filename.quote tmp)
      in
      let rc = Sys.command cmd in
      if rc <> 0 then Alcotest.failf "%s %s --help exited %d" exe verb rc;
      let ic = open_in_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let verbs = [ "run"; "alg"; "query"; "update"; "check"; "translate" ]

let shared_flags =
  [ "--fuel"; "--trace"; "--profile"; "--metrics"; "--domains"; "--plan";
    "--stats-file"; "--timeout"; "--memory-limit"; "--degrade" ]

let test_parity () =
  match find_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    List.iter
      (fun verb ->
        let help = help_text exe verb in
        List.iter
          (fun flag ->
            if not (contains ~needle:flag help) then
              Alcotest.failf "verb %S does not document %s" verb flag)
          shared_flags)
      verbs

(* The documented exit-code contract, end to end: a divergent program
   (Peano) under a huge fuel budget but a short deadline exits 4; under
   a small fuel budget it exits 3. [Sys.command] returns the exit code
   directly. *)
let test_exit_codes () =
  match find_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let dl = Filename.temp_file "recalg_diverge" ".dl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove dl with Sys_error _ -> ())
      (fun () ->
        let oc = open_out dl in
        output_string oc "p(z). p(s(X)) :- p(X).\n";
        close_out oc;
        let run args =
          Sys.command
            (Printf.sprintf "%s run %s %s >/dev/null 2>&1" (Filename.quote exe)
               (Filename.quote dl) args)
        in
        Alcotest.(check int) "deadline exits 4" 4
          (run "--fuel 1000000000 --timeout 100");
        Alcotest.(check int) "fuel exits 3" 3 (run "--fuel 1000");
        Alcotest.(check int) "degraded run reports the exhausted resource" 3
          (run "--fuel 1000 --degrade"))

(* The exit code and stdout of [exe args]. *)
let capture exe args =
  let out = Filename.temp_file "recalg_out" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote exe) args
             (Filename.quote out))
      in
      (rc, In_channel.with_open_bin out In_channel.input_all))

(* dune runtest runs in _build/default/test, dune exec at the root. *)
let example_dir =
  if Sys.file_exists "examples/programs" then "examples/programs"
  else "../examples/programs"

(* Thm 6.2 on the printed artifact: [translate f.dl] prints an [.alg]
   program that [alg] runs, and whose constants give each IDB predicate
   of [f.dl] its valid semantics -- the true tuples certain, the
   undefined ones possible. *)
let test_translate_runs_under_alg () =
  match find_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let check_value = Alcotest.testable Value.pp Value.equal in
    let files =
      List.filter (fun f -> Filename.check_suffix f ".dl")
        (Array.to_list (Sys.readdir example_dir))
    in
    if files = [] then Alcotest.fail "no example programs";
    List.iter
      (fun f ->
        let path = Filename.concat example_dir f in
        let rc, out = capture exe ("translate " ^ Filename.quote path) in
        Alcotest.(check int) (f ^ ": translate exit code") 0 rc;
        let alg = Filename.temp_file "recalg_translated" ".alg" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove alg with Sys_error _ -> ())
          (fun () ->
            Out_channel.with_open_bin alg (fun oc -> output_string oc out);
            Alcotest.(check int) (f ^ ": alg exit code") 0
              (fst (capture exe ("alg " ^ Filename.quote alg))));
        let sol =
          match Algebra.Parser.parse_program out with
          | Ok p -> Algebra.Rec_eval.solve p.Algebra.Parser.defs Algebra.Db.empty
          | Error msg -> Alcotest.failf "%s: %s" f msg
        in
        let program, edb =
          Datalog.Parser.parse_exn (In_channel.with_open_bin path In_channel.input_all)
        in
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
let test_translate_refuses_reserved () =
  match find_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    let dl = Filename.temp_file "recalg_reserved" ".dl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove dl with Sys_error _ -> ())
      (fun () ->
        Out_channel.with_open_bin dl (fun oc ->
            output_string oc "e(a, b). p(X) :- e(X, Y), Y = id.\n");
        let rc, out = capture exe ("translate " ^ Filename.quote dl) in
        Alcotest.(check int) "exit code" 1 rc;
        Alcotest.(check string) "stdout" "" out)

let suite =
  [
    Alcotest.test_case "all verbs share --fuel/--trace/--profile" `Quick
      test_parity;
    Alcotest.test_case "resource exhaustion exit codes" `Quick test_exit_codes;
    Alcotest.test_case "translate prints a program alg runs (Thm 6.2)" `Quick
      test_translate_runs_under_alg;
    Alcotest.test_case "translate refuses a reserved word" `Quick
      test_translate_refuses_reserved;
  ]

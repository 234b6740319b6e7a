(* Argument parity across CLI verbs: every subcommand must document the
   shared evaluation switches (--fuel, --trace, --profile) identically —
   they all route through Common_args.term, and this pins that no verb
   drifts out of the shared block again. *)

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

let suite =
  [
    Alcotest.test_case "all verbs share --fuel/--trace/--profile" `Quick
      test_parity;
    Alcotest.test_case "resource exhaustion exit codes" `Quick test_exit_codes;
  ]

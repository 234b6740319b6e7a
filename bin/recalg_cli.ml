(* Command-line front end: evaluate a deductive program file under a
   chosen semantics, or translate it to an algebra= program.

   Examples:
     recalg run game.dl --semantics valid
     recalg run game.dl --semantics stable
     recalg translate game.dl
     recalg check game.dl          # safety + stratification report *)

open Recalg
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Datalog.Parser.parse (read_file path) with
  | Ok (program, edb) -> (program, edb)
  | Error msg ->
    Fmt.epr "parse error in %s: %s@." path msg;
    exit 2

let pp_interp interp =
  List.iter
    (fun pred ->
      let show label tuples =
        List.iter
          (fun args ->
            Fmt.pr "@[<h>%s%s(%a)@]@." label pred
              Fmt.(list ~sep:(any ", ") Value.pp)
              args)
          tuples
      in
      show "" (Datalog.Interp.true_tuples interp pred);
      show "undef: " (Datalog.Interp.undef_tuples interp pred))
    (Datalog.Interp.preds interp)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.dl") in
  let semantics =
    let parse = Arg.enum
        [ ("valid", `Valid); ("wellfounded", `Wf); ("inflationary", `Inf);
          ("stratified", `Strat); ("stable", `Stable) ]
    in
    Arg.(value & opt parse `Valid & info [ "semantics"; "s" ] ~doc:"Semantics to use.")
  in
  let run file semantics common =
    let program, edb = load file in
    Common_args.with_reporting common @@ fun fuel ->
    match semantics with
    | `Valid -> pp_interp (Datalog.Run.valid ~fuel program edb)
    | `Wf -> pp_interp (Datalog.Run.wellfounded ~fuel program edb)
    | `Inf -> pp_interp (Datalog.Run.inflationary ~fuel program edb)
    | `Strat -> (
      match Datalog.Run.stratified ~fuel program edb with
      | Ok db -> Fmt.pr "%a@." Datalog.Edb.pp db
      | Error e ->
        Fmt.epr "error: %s@." e;
        exit 1)
    | `Stable ->
      let models = Datalog.Run.stable ~fuel program edb in
      Fmt.pr "%d stable model(s)@." (List.length models);
      List.iteri
        (fun i m ->
          Fmt.pr "--- model %d ---@." (i + 1);
          pp_interp m)
        models
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Evaluate a deductive program under a chosen semantics.")
    Term.(const run $ file $ semantics $ Common_args.term)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.dl") in
  let check file common =
    Common_args.with_reporting common @@ fun _fuel ->
    let program, _ = load file in
    (match Datalog.Safety.check program with
    | Ok () -> Fmt.pr "safe: yes@."
    | Error violations ->
      Fmt.pr "safe: no@.";
      List.iter (fun v -> Fmt.pr "  %a@." Datalog.Safety.pp_violation v) violations);
    match Datalog.Stratify.analyse program with
    | Datalog.Stratify.Stratified groups ->
      Fmt.pr "stratified: yes (%d strata)@." (List.length groups)
    | Datalog.Stratify.Not_stratified (p, q) ->
      Fmt.pr "stratified: no (%s depends negatively on %s through a cycle)@." p q
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Report safety and stratification of a program.")
    Term.(const check $ file $ Common_args.term)

let translate_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.dl") in
  let translate file common =
    Common_args.with_reporting common @@ fun _fuel ->
    let program, edb = load file in
    let tr = Translate.Datalog_to_alg.translate program edb in
    (* Rendered whole first, so a name with no [.alg] syntax leaves
       stdout empty. *)
    match
      Fmt.str "%% database@.%a@.%% algebra= program (Proposition 6.1)@.%a@."
        Algebra.Db.pp tr.Translate.Datalog_to_alg.db
        Algebra.Defs.pp tr.Translate.Datalog_to_alg.defs
    with
    | text -> print_string text
    | exception Invalid_argument msg ->
      Fmt.epr "error: %s@." msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Translate a safe deductive program to recursive algebra equations.")
    Term.(const translate $ file $ Common_args.term)

(* Updates files: one signed ground fact per line — "+edge(a,b)." inserts,
   "-edge(a,b)." deletes — with '%' comments; blank lines separate batches
   applied in sequence. *)
let parse_updates builtins path =
  let fail fmt = Fmt.kstr (fun m -> Fmt.epr "%s: %s@." path m; exit 2) fmt in
  let parse_line line =
    let line = String.trim line in
    if line = "" then `Blank
    else if line.[0] = '%' then `Comment
    else
      let sign, rest =
        match line.[0] with
        | '+' -> (true, String.sub line 1 (String.length line - 1))
        | '-' -> (false, String.sub line 1 (String.length line - 1))
        | _ -> (true, line)
      in
      match Datalog.Parser.parse_rule (String.trim rest) with
      | Error msg -> fail "bad update %S: %s" line msg
      | Ok rule when rule.Datalog.Rule.body <> [] ->
        fail "update %S has a body; only ground facts can be updated" line
      | Ok rule -> (
        match
          Datalog.Literal.ground_atom builtins Datalog.Subst.empty
            rule.Datalog.Rule.head
        with
        | Some (pred, args) -> `Fact (sign, pred, args)
        | None -> fail "update %S is not ground" line)
  in
  let batches, last =
    List.fold_left
      (fun (batches, current) line ->
        match parse_line line with
        | `Blank -> if current = [] then (batches, []) else (List.rev current :: batches, [])
        | `Comment -> (batches, current)
        | `Fact f -> (batches, f :: current))
      ([], [])
      (String.split_on_char '\n' (read_file path))
  in
  let batches = if last = [] then batches else List.rev last :: batches in
  List.rev_map Datalog.Edb.Update.of_facts batches

let update_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.dl") in
  let updates =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"UPDATES"
             ~doc:"Signed ground facts, one per line (+f(a). inserts, \
                   -f(a). deletes); blank lines separate batches.")
  in
  let semantics =
    let parse = Arg.enum
        [ ("stratified", `Strat); ("valid", `Valid); ("wellfounded", `Wf);
          ("inflationary", `Inf) ]
    in
    Arg.(value & opt parse `Strat
         & info [ "semantics"; "s" ]
             ~doc:"Semantics to maintain under updates.")
  in
  let update file updates semantics common =
    let program, edb = load file in
    let batches = parse_updates program.Datalog.Program.builtins updates in
    Common_args.with_reporting common @@ fun fuel ->
    match semantics with
    | `Strat -> (
      match Datalog.Incremental.init ~fuel program edb with
      | Error e ->
        Fmt.epr "error: %s@." e;
        exit 1
      | Ok t ->
        let final =
          List.fold_left (fun _ u -> Datalog.Incremental.update t u)
            (Datalog.Incremental.result t) batches
        in
        Fmt.pr "%a@." Datalog.Edb.pp final)
    | (`Valid | `Wf | `Inf) as s ->
      let semantics =
        match s with `Valid -> `Valid | `Wf -> `Wellfounded | `Inf -> `Inflationary
      in
      let live = Datalog.Run.Live.start ~fuel ~semantics program edb in
      let final =
        List.fold_left (fun _ u -> Datalog.Run.Live.update live u)
          (Datalog.Run.Live.interp live) batches
      in
      pp_interp final
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Maintain a program's result differentially under update batches.")
    Term.(const update $ file $ updates $ semantics $ Common_args.term)

(* The planner for an algebra evaluation over [db]: stats come from the
   persisted file when one is given (stale entries pruned against the
   live database) merged under a fresh sampling pass. *)
let planner_of mode stats_file db =
  let sampled = Plan.Stats.of_db db in
  let stats =
    match Option.bind stats_file Plan.Stats.load with
    | None -> sampled
    | Some persisted -> Plan.Stats.merge (Plan.Stats.prune_stale db persisted) sampled
  in
  Plan.Planner.create ~stats mode

let alg_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.alg") in
  let window =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~doc:"Intersect constants with the integers 0..N.")
  in
  let plan =
    let parse =
      Arg.enum [ ("off", Plan.Planner.Off); ("cost", Plan.Planner.Cost) ]
    in
    Arg.(
      value & opt parse Plan.Planner.Off
      & info [ "plan" ] ~docv:"MODE"
          ~doc:
            "Query planning: $(b,off) evaluates expressions as written; \
             $(b,cost) reorders multiway joins by exact \
             dynamic-programming search (up to 8 relations, greedy \
             left-deep above), adds semijoin reducers under projections, \
             and re-plans a fixpoint body at a round boundary when the \
             cardinalities it observes drift from the estimates. It \
             changes only which expression runs; how each operator runs \
             is the evaluator's choice in both modes. Results are \
             byte-identical in both modes.")
  in
  let stats_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-file" ] ~docv:"FILE"
          ~doc:
            "Persist planner statistics across runs: load $(docv) before \
             evaluation (entries whose fingerprint contradicts the live \
             database are dropped), and rewrite it from the live \
             relations afterwards. Missing or unreadable files degrade \
             to no stats.")
  in
  let alg file window plan stats_file common =
    Common_args.with_reporting common @@ fun fuel ->
    match Algebra.Parser.parse_program (read_file file) with
    | Error msg ->
      Fmt.epr "parse error in %s: %s@." file msg;
      exit 2
    | Ok p -> (
      match Algebra.Defs.validate p.Algebra.Parser.defs with
      | Error msg ->
        Fmt.epr "invalid program: %s@." msg;
        exit 1
      | Ok () ->
        let window = Option.map (fun n -> Value.set (List.init (n + 1) Value.int)) window in
        let planner = planner_of plan stats_file Algebra.Db.empty in
        let advice = Plan.Planner.advice planner in
        let constants =
          Algebra.Defs.constant_names
            (Algebra.Defs.inline_all p.Algebra.Parser.defs)
        in
        let sol =
          Algebra.Rec_eval.solve ?window ~fuel ~advice
            p.Algebra.Parser.defs Algebra.Db.empty
        in
        List.iter
          (fun name ->
            Fmt.pr "@[<h>%s = %a@]@." name Algebra.Rec_eval.pp_vset
              (Algebra.Rec_eval.constant sol name))
          constants;
        (match p.Algebra.Parser.query with
        | Some q ->
          Fmt.pr "@[<h>query = %a@]@." Algebra.Rec_eval.pp_vset
            (Algebra.Rec_eval.query sol q)
        | None -> ());
        if common.Common_args.profile && plan <> Plan.Planner.Off then
          Fmt.epr "%a" Plan.Planner.pp_reports (Plan.Planner.reports planner);
        (* Persist what this run learned: the solved constants' certain
           members are next run's relation statistics. *)
        Option.iter
          (fun path ->
            Plan.Stats.save path
              (Plan.Stats.of_db
                 (List.fold_left
                    (fun db name ->
                      Algebra.Db.add name
                        (Algebra.Rec_eval.constant sol name).Algebra.Rec_eval.low db)
                    Algebra.Db.empty constants)))
          stats_file)
  in
  Cmd.v
    (Cmd.info "alg"
       ~doc:"Evaluate an algebra= program under the valid semantics.")
    Term.(const alg $ file $ window $ plan $ stats_file $ Common_args.term)

let query_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.dl") in
  let goal =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"GOAL" ~doc:"e.g. 'win(X)' or 'win(a)'.")
  in
  let query file goal common =
    let program, edb = load file in
    Common_args.with_reporting common @@ fun fuel ->
    (* A goal is one bodyless rule's head. *)
    match Datalog.Parser.parse_rule (goal ^ ".") with
    | Error msg ->
      Fmt.epr "bad goal: %s@." msg;
      exit 2
    | Ok rule ->
      let head = rule.Datalog.Rule.head in
      if Datalog.Literal.atom_vars head = [] then
        Fmt.pr "%a@." Tvl.pp (Datalog.Query.holds ~fuel program edb head)
      else
      let answers = Datalog.Query.ask ~fuel program edb head in
      if answers = [] then Fmt.pr "no@."
      else
        List.iter
          (fun a ->
            let pp_binding ppf (x, v) = Fmt.pf ppf "%s = %a" x Value.pp v in
            match a.Datalog.Query.bindings with
            | [] -> Fmt.pr "%a@." Tvl.pp a.Datalog.Query.status
            | bs ->
              Fmt.pr "@[<h>%a  (%a)@]@."
                Fmt.(list ~sep:(any ", ") pp_binding)
                bs Tvl.pp a.Datalog.Query.status)
          answers
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Answer a goal R(x)? under the valid semantics.")
    Term.(const query $ file $ goal $ Common_args.term)

let report_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.dl") in
  let semantics =
    let parse = Arg.enum
        [ ("valid", `Valid); ("wellfounded", `Wf); ("inflationary", `Inf);
          ("stratified", `Strat) ]
    in
    Arg.(value & opt parse `Valid
         & info [ "semantics"; "s" ] ~doc:"Semantics to evaluate under.")
  in
  let top =
    Arg.(value & opt int 12
         & info [ "top" ] ~docv:"N"
             ~doc:"Phases shown in each top-phases table.")
  in
  let report file semantics top common =
    let program, edb = load file in
    Obs.Metrics.reset ();
    Common_args.with_reporting common @@ fun fuel ->
    Obs.Metrics.with_collecting (fun () ->
        match semantics with
        | `Valid -> ignore (Datalog.Run.valid ~fuel program edb)
        | `Wf -> ignore (Datalog.Run.wellfounded ~fuel program edb)
        | `Inf -> ignore (Datalog.Run.inflationary ~fuel program edb)
        | `Strat -> (
          match Datalog.Run.stratified ~fuel program edb with
          | Ok _ -> ()
          | Error e ->
            Fmt.epr "error: %s@." e;
            exit 1));
    Fmt.pr "%a@."
      (fun ppf sn -> Obs.Metrics.pp_report ~top ppf sn)
      (Obs.Metrics.snapshot ())
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Evaluate a deductive program with retained metrics on and \
          render the top phases by wall time and fuel with p50/p90/p99 \
          latency quantiles — the answers are discarded, the resource \
          picture is the output.")
    Term.(const report $ file $ semantics $ top $ Common_args.term)

let () =
  let doc = "algebras with recursion under the valid semantics" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "recalg" ~doc)
          [ run_cmd; check_cmd; translate_cmd; alg_cmd; query_cmd; update_cmd;
            report_cmd ]))

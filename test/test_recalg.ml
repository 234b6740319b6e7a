(* Test runner: one alcotest section per subsystem. *)

let () =
  Alcotest.run "recalg"
    [
      ("kernel", Test_kernel.suite);
      ("zset", Test_zset.suite);
      ("incremental", Test_incremental.suite);
      ("cli", Test_cli_args.suite);
      ("datalog", Test_datalog.suite);
      ("program", Test_program.suite);
      ("query", Test_query.suite);
      ("seminaive", Test_seminaive.suite);
      ("algebra", Test_algebra.suite);
      ("translate", Test_translate.suite);
      ("alg-parser", Test_alg_parser.suite);
      ("spec", Test_spec.suite);
      ("obs", Test_obs.suite);
      ("metrics", Test_metrics.suite);
      ("plan", Test_plan.suite);
      ("parallel", Test_parallel.suite);
      ("chaos", Test_chaos.suite);
      ("parameterized", Test_parameterized.suite);
      ("complexity", Test_complexity.suite);
    ]

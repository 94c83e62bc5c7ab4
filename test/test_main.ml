(* Aggregates every suite into one alcotest run: `dune runtest`. *)

let () =
  Alcotest.run "ripple"
    (Test_util.suites @ Test_isa.suites @ Test_trace.suites @ Test_cache.suites
   @ Test_belady.suites @ Test_stream.suites @ Test_prefetch.suites @ Test_cpu.suites @ Test_workloads.suites
   @ Test_core.suites @ Test_analysis.suites @ Test_hint_safety.suites @ Test_extra.suites @ Test_extensions.suites @ Test_regression.suites
   @ Test_more.suites @ Test_exp.suites @ Test_fault.suites @ Test_obs.suites
   @ Test_serve.suites @ Test_zoo.suites)

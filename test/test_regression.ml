(* Golden regression values.

   These pin the exact behaviour of the full stack (CFG generation,
   executor, prefetchers, cache, oracle) for one fixed configuration.
   They exist to catch unintended behavioural drift during refactoring;
   a deliberate model change is expected to update them (and re-run the
   benches so EXPERIMENTS.md stays truthful). *)

module W = Ripple_workloads
module Simulator = Ripple_cpu.Simulator
module Cache = Ripple_cache

let checki = Alcotest.check Alcotest.int

let setup =
  lazy
    (let w = W.Cfg_gen.generate W.Apps.kafka in
     let trace = W.Executor.run w ~input:W.Executor.eval_inputs.(0) ~n_instrs:300_000 in
     (w.W.Cfg_gen.program, trace))

let test_trace_shape () =
  let _, trace = Lazy.force setup in
  checki "trace length" 30_938 (Array.length trace)

let run prefetcher =
  let program, trace = Lazy.force setup in
  Simulator.run ~program ~trace ~policy:Cache.Lru.make ~prefetcher ()

let test_lru_none () =
  let r = run Simulator.prefetcher_none in
  checki "instructions" 300_003 r.Simulator.instructions;
  checki "misses" 2_859 r.Simulator.demand_misses

let test_lru_nlp () = checki "misses" 1_813 (run (Simulator.prefetcher_nlp ?config:None)).Simulator.demand_misses
let test_lru_fdip () = checki "misses" 1_088 (run (Simulator.prefetcher_fdip ?config:None)).Simulator.demand_misses

let test_oracle () =
  let program, trace = Lazy.force setup in
  let r =
    Simulator.oracle ~mode:Cache.Belady.Min ~program ~trace
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checki "oracle misses" 1_920 r.Simulator.demand_misses

let test_stream_length () =
  let program, trace = Lazy.force setup in
  let stream, _ =
    Simulator.record_stream_indexed_trace ~program ~trace:(Simulator.Trace.Blocks trace)
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checki "stream length" 49_115 (Cache.Access_stream.length stream)

let suites =
  [
    ( "regression.golden",
      [
        Alcotest.test_case "trace shape" `Quick test_trace_shape;
        Alcotest.test_case "lru/none" `Quick test_lru_none;
        Alcotest.test_case "lru/nlp" `Quick test_lru_nlp;
        Alcotest.test_case "lru/fdip" `Quick test_lru_fdip;
        Alcotest.test_case "oracle" `Quick test_oracle;
        Alcotest.test_case "stream length" `Quick test_stream_length;
      ] );
  ]

(* The traced decomposition: the work [Pipeline.run] and the sweep
   runner do, replayed step by step through each layer's public
   functions with a span around every call.  Every step uses the
   library defaults [Pipeline.Options.default] uses, so the replay
   reproduces the façade's results exactly — which the workloads check. *)

open Common
module W = Ripple_workloads
module P = Ripple_core.Pipeline
module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Pt = Ripple_trace.Pt
module Bb_trace = Ripple_trace.Bb_trace
module Access_stream = Ripple_cache.Access_stream
module Belady = Ripple_cache.Belady
module Registry = Ripple_cache.Registry
module Int_stream = Ripple_util.Int_stream
module Simulator = Ripple_cpu.Simulator
module Config = Ripple_cpu.Config
module Cue_block = Ripple_core.Cue_block
module Injector = Ripple_core.Injector
module Eviction_window = Ripple_core.Eviction_window

let opts = P.Options.default
let config = opts.P.Options.config
let geometry = config.Config.l1i
let prefetcher = P.prefetcher_of ~config opts.P.Options.prefetch
let mode = P.belady_mode_of opts.P.Options.prefetch

(* ------------------------------ inputs ------------------------------ *)

(* The application CFGs are the stock, fixed ones; the seed drives the
   load generator's stochastic execution of the evaluation trace. *)
let eval_input seed = W.Executor.input ~label:"bench-eval" ~seed:(seed + 7919) ()

let model name =
  match W.Apps.by_name name with Some m -> m | None -> invalid_arg ("unknown app " ^ name)

let generate tr name = Tracer.span tr "workloads.generate" (fun () -> W.Cfg_gen.generate (model name))

let execute tr w ~input ~n_instrs =
  Tracer.span tr "workloads.execute" (fun () -> W.Executor.run w ~input ~n_instrs)

(* ----------------------------- pipeline ----------------------------- *)

(* Profile → instrumented binary: decode → profile → belady →
   cue-select → inject, as [Pipeline.run] does at default options. *)
let instrument ?(threshold = opts.P.Options.threshold) tr ~source ~profile =
  let bytes = Tracer.span tr "trace.encode" (fun () -> Pt.encode source profile) in
  let recovery = Tracer.span tr "trace.decode" (fun () -> Pt.decode_result source bytes) in
  let trace = recovery.Pt.trace in
  Tracer.count tr "trace.blocks" (Array.length trace);
  let stream =
    Tracer.span tr "cpu.record_stream" (fun () ->
        let stream, pos =
          Simulator.record_stream_indexed_trace ~config ~program:source
            ~trace:(Simulator.Trace.Blocks trace) ~prefetcher ()
        in
        Int_stream.close pos;
        stream)
  in
  Tracer.count tr "cpu.accesses" (Access_stream.length stream);
  let windows =
    Tracer.span tr "cache.belady" (fun () ->
        let replay = Belady.simulate geometry ~mode stream in
        Eviction_window.of_evictions
          ~demand_covered_only:opts.P.Options.exclude_prefetch_covered replay.Belady.evictions)
  in
  Tracer.count tr "cache.belady_windows" (Array.length windows);
  let decisions, _drops =
    Tracer.span tr "core.cue_select" (fun () ->
        Cue_block.analyze_report ~scan_limit:opts.P.Options.scan_limit
          ~min_support:opts.P.Options.min_support ~stream ~windows
          ~exec_counts:(Bb_trace.exec_counts source trace)
          ~threshold ())
  in
  Access_stream.close stream;
  Tracer.count tr "core.cue_decisions" (List.length decisions);
  let program, _remap, injection =
    Tracer.span tr "core.inject" (fun () ->
        Injector.inject ~mode:opts.P.Options.mode ~skip_jit:opts.P.Options.skip_jit
          ~max_hints_per_block:opts.P.Options.max_hints_per_block ~program:source ~decisions ())
  in
  Tracer.count tr "core.hints" injection.Injector.injected;
  program

(* The evaluation [Pipeline.run] performs with [Options.eval] set:
   ideal eviction windows of the instrumented binary on the evaluation
   trace (the accuracy yardstick), then the timed simulation. *)
let evaluate tr ~(program : Program.t) ~trace ~warmup ~policy =
  let stream, pos =
    Tracer.span tr "cpu.record_stream" (fun () ->
        Simulator.record_stream_indexed_trace ~config ~program
          ~trace:(Simulator.Trace.Blocks trace) ~prefetcher ())
  in
  Tracer.count tr "cpu.accesses" (Access_stream.length stream);
  let index =
    Tracer.span tr "cache.belady" (fun () ->
        let replay = Belady.simulate geometry ~mode stream in
        let windows =
          Eviction_window.to_trace_coords_with
            (Eviction_window.of_evictions replay.Belady.evictions)
            ~pos:(Int_stream.get pos)
        in
        Tracer.count tr "cache.belady_windows" (Array.length windows);
        Eviction_window.Index.create windows)
  in
  Access_stream.close stream;
  Int_stream.close pos;
  let accurate = ref 0 in
  let on_hint ~at hint ~resident =
    if at >= warmup then
      if (not resident) || Eviction_window.Index.mem index ~line:(Basic_block.hint_line hint) ~at then
        incr accurate
  in
  let result, _ =
    Tracer.span tr "cpu.simulate" (fun () ->
        Simulator.run_trace ~config ~warmup ~on_hint ~program ~trace:(Simulator.Trace.Blocks trace)
          ~policy ~prefetcher ())
  in
  Tracer.count tr "cpu.sim_instrs" result.Simulator.instructions;
  result

let lru () = Registry.factory "lru"

(* ------------------------------ report ------------------------------ *)

(* Every per-layer metric the traced run reports: span seconds, the
   deterministic counters, and the derived rates.  Layers a workload
   never enters read 0. *)
let span_metrics =
  [
    "workloads.generate";
    "workloads.execute";
    "trace.encode";
    "trace.decode";
    "cpu.record_stream";
    "cpu.simulate";
    "cache.belady";
    "core.cue_select";
    "core.inject";
    "analysis.classify";
    "serve.apply_chunk";
    "serve.apply_flush";
  ]

let count_metrics =
  [
    ("trace.blocks", "count");
    ("cpu.accesses", "count");
    ("cpu.sim_instrs", "count");
    ("cpu.alloc_words", "words");
    ("cache.belady_windows", "count");
    ("cache.alloc_words", "words");
    ("core.cue_decisions", "count");
    ("core.hints", "count");
    ("core.alloc_words", "words");
    ("analysis.classify_sites", "count");
    ("analysis.alloc_words", "words");
    ("exp.cells", "count");
  ]

(* Layers with spans of their own.  The exp layer (runner and domain
   pool) is not replayed — the replay runs cells serially — so it is
   measured on real [Runner.run] calls instead (exp.sweep_s,
   exp.cell_p50_s, exp.pool_busy_frac). *)
let layers = [ "workloads"; "trace"; "cpu"; "cache"; "core"; "analysis"; "serve"; "obs" ]

let layer_metrics tr =
  let sim_s = Tracer.seconds tr "cpu.simulate" in
  List.map (fun name -> m (name ^ "_s") "s" (Tracer.seconds tr name)) span_metrics
  @ List.map (fun (name, unit_) -> m name unit_ (Tracer.get tr name)) count_metrics
  @ [
      m "cpu.sim_minstr_per_s" "Minstr/s"
        (if sim_s > 0.0 then Tracer.get tr "cpu.sim_instrs" /. sim_s /. 1e6 else 0.0);
    ]
  @ List.map (fun l -> m (l ^ ".self_s") "s" (Tracer.layer_seconds tr l)) layers

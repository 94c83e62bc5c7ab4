(* policy-sweep: one [Exp.Runner.run] over apps × (every registry
   policy + oracle + Ripple-LRU), with verification off.  One operation
   is one whole sweep on the domain pool. *)

open Common
module L = Layers
module Spec = Ripple_exp.Spec
module Runner = Ripple_exp.Runner
module Report = Ripple_exp.Report
module Registry = Ripple_cache.Registry
module Simulator = Ripple_cpu.Simulator

let apps = [ "kafka"; "verilator"; "finagle-http" ]
let n_instrs = 1_000_000
let ripple_threshold = 0.5

let specs ~seed =
  List.concat_map
    (fun app ->
      List.map (fun p -> Spec.v ~n_instrs ~seed ~app (Spec.Policy p)) Registry.names
      @ [
          Spec.v ~n_instrs ~seed ~app Spec.Oracle;
          Spec.v ~n_instrs ~seed ~app (Spec.Ripple { policy = "lru"; threshold = ripple_threshold });
        ])
    apps

(* The set-up is a separate timing of input generation: each app's CFG
   and its train and eval traces, built on the main domain.  The sweep
   does not use them.  [Runner] memoizes per domain and [Pool.run]
   spawns fresh domains on every call, so each sweep generates its
   inputs again, once per pool domain, inside op_p50_ms. *)
let setup tr =
  List.iter
    (fun app ->
      let w = L.generate tr app in
      List.iter
        (fun input -> ignore (L.execute tr w ~input ~n_instrs : int array))
        [ Ripple_workloads.Executor.train; Ripple_workloads.Executor.eval_inputs.(0) ])
    apps

let failed_cells cells =
  List.length (List.filter (fun c -> Result.is_error (Runner.result c)) cells)

let sweep ~jobs specs = timed (fun () -> Runner.run ~jobs ~quiet:true specs)

let run ~seed ~seconds ~jobs =
  let specs = specs ~seed in
  let (), setup_s = timed_setups (fun () -> setup (Tracer.untraced ())) in
  let attempted = ref 0 and failed = ref 0 and first = ref None and rss = ref 0.0 in
  let op () =
    let cells = Runner.run ~jobs ~quiet:true specs in
    attempted := !attempted + List.length cells;
    failed := !failed + failed_cells cells;
    let jsonl = Report.to_jsonl cells in
    match !first with
    | None ->
      first := Some jsonl;
      rss := first_op_rss ()
    | Some j -> check (j = jsonl) "sweep JSONL differs between repeats"
  in
  let op_times = measure ~seconds op in
  log "sweeps: %s" (String.concat " " (List.map (Printf.sprintf "%.2fs") op_times));
  (* Outside the timed window: the serial sweep must render the same
     bytes as the pooled one. *)
  let serial, _ = sweep ~jobs:1 specs in
  attempted := !attempted + List.length serial;
  failed := !failed + failed_cells serial;
  check (Some (Report.to_jsonl serial) = !first) "sweep JSONL differs between jobs=1 and the pool";
  ( (!attempted, !failed),
    [
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" !rss;
      m "op_p50_ms" "ms" (1000.0 *. median op_times);
    ] )

(* ---------------------------- traced run ---------------------------- *)

(* One cell through the layers, serially, mirroring [Runner.run_spec]. *)
let replay_cell tr ~workload ~trace (spec : Spec.t) =
  let program = workload.Ripple_workloads.Cfg_gen.program in
  let eval = trace spec.Spec.input in
  let warmup = Array.length eval / 2 in
  let policy name = Registry.factory ~seed:(Spec.prng_seed spec) name in
  match spec.Spec.kind with
  | Spec.Policy name ->
    let result, _ =
      Tracer.span tr "cpu.simulate" (fun () ->
          Simulator.run_trace ~config:L.config ~warmup ~program ~trace:(Simulator.Trace.Blocks eval)
            ~policy:(policy name) ~prefetcher:L.prefetcher ())
    in
    Tracer.count tr "cpu.sim_instrs" result.Simulator.instructions;
    result
  | Spec.Oracle ->
    let stream, pos =
      Tracer.span tr "cpu.record_stream" (fun () ->
          let stream, pos =
            Simulator.record_stream_indexed_trace ~config:L.config ~program
              ~trace:(Simulator.Trace.Blocks eval) ~prefetcher:L.prefetcher ()
          in
          let pos' = Ripple_util.Int_stream.to_array pos in
          Ripple_util.Int_stream.close pos;
          (stream, pos'))
    in
    Tracer.count tr "cpu.accesses" (Ripple_cache.Access_stream.length stream);
    let count_from = Simulator.stream_count_from ~stream_pos:pos ~warmup in
    let replay =
      Tracer.span tr "cache.belady" (fun () ->
          Ripple_cache.Belady.simulate ~record_fills:true ~record_evictions:false ~count_from
            L.geometry ~mode:L.mode stream)
    in
    let result =
      Tracer.span tr "cpu.simulate" (fun () ->
          Simulator.oracle ~config:L.config ~warmup ~stream:(stream, pos) ~replay ~mode:L.mode
            ~program ~trace:eval ~prefetcher:L.prefetcher ())
    in
    Ripple_cache.Access_stream.close stream;
    result
  | Spec.Ripple { policy = p; threshold } ->
    let instrumented = L.instrument tr ~threshold ~source:program ~profile:(trace Spec.Train) in
    L.evaluate tr ~program:instrumented ~trace:eval ~warmup ~policy:(policy p)
  | Spec.Ideal_cache -> invalid_arg "ideal-cache cells are not part of the sweep"

(* The cells serially, memoized as the runner memoizes them: one memo of
   CFGs and traces per pool domain, with cells dealt to the memos
   round-robin.  The pool's shared cursor hands each domain cells of
   every app, and round-robin over an app's twelve consecutive cells
   does the same, so the replay generates what a pooled sweep
   generates: each app's CFG and eval trace once per domain, and its
   train trace once (for the Ripple cell). *)
let replay tr ~jobs specs =
  let memos = Array.init jobs (fun _ -> (Hashtbl.create 4, Hashtbl.create 8)) in
  List.mapi
    (fun i (spec : Spec.t) ->
      let workloads, traces = memos.(i mod jobs) in
      let app = spec.Spec.app in
      let workload =
        match Hashtbl.find_opt workloads app with
        | Some w -> w
        | None ->
          let w = L.generate tr app in
          Hashtbl.add workloads app w;
          w
      in
      let trace input =
        let input =
          match input with
          | Spec.Train -> Ripple_workloads.Executor.train
          | Spec.Eval i -> Ripple_workloads.Executor.eval_inputs.(i)
        in
        let key = (app, input.Ripple_workloads.Executor.label) in
        match Hashtbl.find_opt traces key with
        | Some t -> t
        | None ->
          let t = L.execute tr workload ~input ~n_instrs:spec.Spec.n_instrs in
          Hashtbl.add traces key t;
          t
      in
      Tracer.count tr "exp.cells" 1;
      replay_cell tr ~workload ~trace spec)
    specs

(* Simulated IPC gain of Ripple-LRU over plain LRU, mean over apps. *)
let ripple_speedup_pct cells =
  let ipc app kind =
    match
      List.find_opt (fun (c : Runner.cell) -> c.Runner.spec.Spec.app = app && c.Runner.spec.Spec.kind = kind) cells
    with
    | Some c -> (
      match Runner.result c with Ok o -> o.Runner.result.Simulator.ipc | Error _ -> nan)
    | None -> nan
  in
  let gains =
    List.map
      (fun app ->
        let ripple = ipc app (Spec.Ripple { policy = "lru"; threshold = ripple_threshold })
        and lru = ipc app (Spec.Policy "lru") in
        100.0 *. ((ripple /. lru) -. 1.0))
      apps
  in
  List.fold_left ( +. ) 0.0 gains /. Float.of_int (List.length gains)

let run_traced ~seed ~jobs ~trace_path =
  let specs = specs ~seed in
  let serial, _ = sweep ~jobs:1 specs in
  let pooled, sweep_s = sweep ~jobs specs in
  check (Report.to_jsonl serial = Report.to_jsonl pooled) "sweep JSONL differs between jobs=1 and the pool";
  let _, untraced_s = timed (fun () -> replay (Tracer.untraced ()) ~jobs specs) in
  let tr, results, traced_s, majors = traced_replays (fun tr -> replay tr ~jobs specs) in
  List.iter2
    (fun res (cell : Runner.cell) ->
      check
        (match Runner.result cell with
        | Ok o -> Json.equal (Simulator.result_to_json res) (Simulator.result_to_json o.Runner.result)
        | Error _ -> false)
        (Spec.to_string cell.Runner.spec ^ ": traced cell differs from Runner.run"))
    results serial;
  Tracer.write_chrome tr ~path:trace_path;
  let busy = List.fold_left (fun acc (c : Runner.cell) -> acc +. c.Runner.elapsed) 0.0 pooled in
  let cells = List.length pooled in
  ( (2 * cells, failed_cells serial + failed_cells pooled),
    L.layer_metrics tr
    @ [
        m "exp.sweep_s" "s" sweep_s;
        m "exp.cell_p50_s" "s" (median (List.map (fun (c : Runner.cell) -> c.Runner.elapsed) pooled));
        m "exp.pool_busy_frac" "ratio" (busy /. (Float.of_int jobs *. sweep_s));
        m "exp.ripple_speedup_pct" "%" (ripple_speedup_pct pooled);
      ]
    @ replay_metrics ~majors ~traced_s ~untraced_s )

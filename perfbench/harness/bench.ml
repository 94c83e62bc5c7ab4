(* The repository benchmark's harness.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --root DIR --work DIR --daemon EXE

   --trace 0 measures the workload for S seconds and prints the
   end-to-end metrics; --trace 1 replays it through the layers under
   the benchmark's own tracer and prints the per-layer metrics.  Either
   way the last stdout line is the result object, and the output checks
   run in the same command: a failed check sets "correct" to false and
   the exit code to 1. *)

open Common

(* Sweep cells run on at most as many domains as the host has cores. *)
let jobs = min 2 (Domain.recommended_domain_count ())

(* Every per-layer metric, in report order.  A traced run prints all of
   them; layers its workload never enters read 0. *)
let per_layer =
  List.map (fun x -> (x.name, x.unit_)) (Layers.layer_metrics (Tracer.untraced ()))
  @ [
      ("exp.sweep_s", "s");
      ("exp.cell_p50_s", "s");
      ("exp.pool_busy_frac", "ratio");
      ("exp.ripple_speedup_pct", "%");
      ("serve.chunk_rtt_p50_ms", "ms");
      ("serve.chunk_rtt_p99_ms", "ms");
      ("serve.scrape_gen_late_ms", "ms");
      ("serve.flush_full_p50_ms", "ms");
      ("serve.flush_safe_only_p50_ms", "ms");
      ("serve.scrape_p50_ms", "ms");
      ("serve.scrape_p99_ms", "ms");
      ("serve.scrapes", "count");
      ("serve.ingest_mb_per_s", "MB/s");
      ("obs.metrics_body_ms", "ms");
      ("obs.scrape_bytes", "bytes");
      ("serve.sigterm_misses", "count");
      ("gc.major_collections", "count");
      ("bench.traced_wall_s", "s");
      ("bench.untraced_wall_s", "s");
      ("bench.tracing_overhead_s", "s");
    ]

let complete metrics =
  List.iter
    (fun x -> if not (List.mem_assoc x.name per_layer) then failwith ("unlisted per-layer metric " ^ x.name))
    metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) metrics with Some x -> x | None -> m name unit_ 0.0)
    per_layer

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let root = ref "." and work = ref "." and daemon = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--root", Arg.Set_string root, "DIR repository checkout");
      ("--work", Arg.Set_string work, "DIR working directory");
      ("--daemon", Arg.Set_string daemon, "EXE ripple-sim executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds in
  let trace_path = Filename.concat !work (!workload ^ ".trace.json") in
  let result =
    match (!workload, !trace) with
    | "policy-sweep", 0 -> Sweep_wl.run ~seed ~seconds ~jobs
    | "serve-degraded", 0 -> Serve_wl.run ~exe:!daemon ~work:!work ~root:!root ~seed ~seconds
    | "policy-sweep", 1 -> Sweep_wl.run_traced ~seed ~jobs ~trace_path
    | "serve-degraded", 1 -> Serve_wl.run_traced ~exe:!daemon ~work:!work ~root:!root ~seed ~seconds ~trace_path
    | w, t ->
      prerr_endline (Printf.sprintf "unknown workload %S or trace mode %d" w t);
      exit 2
  in
  let (attempted, failed), metrics = result in
  let metrics = if !trace = 1 then complete metrics else metrics in
  print_result ~attempted ~failed metrics;
  if not (checks_passed () && failed = 0) then exit 1

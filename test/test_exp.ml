(* The experiment runner: parallel determinism, crash isolation, the
   policy registry, and JSON round-trips. *)

module Cache = Ripple_cache
module Cpu = Ripple_cpu
module Core = Ripple_core
module Exp = Ripple_exp
module Json = Ripple_util.Json

let n_instrs = 60_000

let small_specs () =
  let open Exp.Spec in
  List.concat_map
    (fun app ->
      [
        v ~n_instrs ~app (Policy "lru");
        v ~n_instrs ~app (Policy "random");
        v ~n_instrs ~app ~prefetch:Core.Pipeline.No_prefetch Ideal_cache;
        v ~n_instrs ~app (Ripple { policy = "lru"; threshold = 0.5 });
      ])
    [ "finagle-http"; "verilator" ]

(* The acceptance criterion: a sweep renders byte-identically no matter
   how many domains executed it. *)
let test_parallel_determinism () =
  let specs = small_specs () in
  let serial = Exp.Runner.run ~jobs:1 ~quiet:true specs in
  let parallel = Exp.Runner.run ~jobs:4 ~quiet:true specs in
  Alcotest.(check string)
    "jobs=1 and jobs=4 JSONL byte-identical" (Exp.Report.to_jsonl serial)
    (Exp.Report.to_jsonl parallel);
  List.iter
    (fun (c : Exp.Runner.cell) ->
      Alcotest.(check bool) "cell ok" true (Result.is_ok (Exp.Runner.result c)))
    serial

(* Same property through the shared recordings: the oracle and policy
   cells of one (app, input, length, prefetcher) read one recorded
   stream, made by whichever domain reaches it first, so a sweep that
   mixes them must still render byte-identically across job counts. *)
let test_parallel_determinism_with_memoized_streams () =
  let open Exp.Spec in
  let specs =
    List.concat_map
      (fun app ->
        [
          v ~n_instrs ~app ~prefetch:Core.Pipeline.Fdip Oracle;
          v ~n_instrs ~app (Policy "lru");
          v ~n_instrs ~app ~prefetch:Core.Pipeline.Fdip Oracle;
          v ~n_instrs ~app ~prefetch:Core.Pipeline.Nlp Oracle;
        ])
      [ "finagle-http"; "verilator" ]
  in
  let serial = Exp.Runner.run ~jobs:1 ~quiet:true specs in
  let parallel = Exp.Runner.run ~jobs:4 ~quiet:true specs in
  Alcotest.(check string)
    "oracle sweep byte-identical across jobs" (Exp.Report.to_jsonl serial)
    (Exp.Report.to_jsonl parallel);
  List.iter
    (fun (c : Exp.Runner.cell) ->
      Alcotest.(check bool) "cell ok" true (Result.is_ok (Exp.Runner.result c)))
    parallel

(* write_jsonl creates missing parent directories and leaves no temp
   file behind; the rename makes the write atomic. *)
let test_write_jsonl_creates_parents () =
  let root = Filename.temp_file "ripple_exp_test" "" in
  Sys.remove root;
  let path = Filename.concat (Filename.concat root "a/b") "out.jsonl" in
  let cells =
    Exp.Runner.run ~jobs:1 ~quiet:true
      [ Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "lru") ]
  in
  Exp.Report.write_jsonl path cells;
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "contents match to_jsonl" (Exp.Report.to_jsonl cells) contents;
  let dir = Filename.dirname path in
  Alcotest.(check (list string))
    "no temp residue" [ "out.jsonl" ]
    (Array.to_list (Sys.readdir dir));
  Sys.remove path;
  Unix.rmdir dir;
  Unix.rmdir (Filename.concat root "a");
  Unix.rmdir root

(* When the final rename fails (destination occupied by a directory),
   write_jsonl must remove its temp file — an aborted write leaves the
   destination directory exactly as it found it. *)
let test_write_jsonl_temp_cleanup () =
  let root = Filename.temp_file "ripple_exp_test" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  let path = Filename.concat root "out.jsonl" in
  Unix.mkdir path 0o755 (* rename file -> existing dir fails *);
  let cells = [] in
  (match Exp.Report.write_jsonl path cells with
  | () -> Alcotest.fail "expected the rename to fail"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string))
    "only the blocking directory remains" [ "out.jsonl" ]
    (Array.to_list (Sys.readdir root));
  Unix.rmdir path;
  Unix.rmdir root

(* Repeating the same spec twice in one sweep must give identical cells:
   per-cell PRNGs, not a shared stream. *)
let test_repeat_spec_identical () =
  let spec = Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "random") in
  match Exp.Runner.run ~jobs:2 ~quiet:true [ spec; spec ] with
  | [ a; b ] ->
    Alcotest.(check string)
      "identical cells" (Json.to_string (Exp.Report.cell_to_json a))
      (Json.to_string (Exp.Report.cell_to_json b))
  | _ -> Alcotest.fail "expected two cells"

let test_failed_cell_isolation () =
  let good = Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "lru") in
  let bad_app = Exp.Spec.v ~n_instrs ~app:"no-such-app" (Exp.Spec.Policy "lru") in
  let bad_policy = Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "no-such-policy") in
  match Exp.Runner.run ~jobs:2 ~quiet:true [ bad_app; good; bad_policy ] with
  | [ a; g; p ] ->
    Alcotest.(check bool)
      "bad app errors" true
      (Result.is_error (Exp.Runner.result a));
    Alcotest.(check bool) "good cell survives" true (Result.is_ok (Exp.Runner.result g));
    Alcotest.(check bool)
      "bad policy errors" true
      (Result.is_error (Exp.Runner.result p));
    let json = Exp.Report.cell_to_json a in
    Alcotest.(check (option string))
      "failed status rendered" (Some "failed")
      (match Json.member "status" json with Some (Json.String s) -> Some s | _ -> None)
  | _ -> Alcotest.fail "expected three cells"

(* A cell that fails deterministically is retried with perturbed seeds:
   the emitted cell keeps the original spec, records every attempt, and
   renders the attempt count in its JSON row. *)
let test_retries_recorded () =
  let bad = Exp.Spec.v ~n_instrs ~app:"no-such-app" (Exp.Spec.Policy "lru") in
  let good = Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "lru") in
  match Exp.Runner.run ~jobs:1 ~quiet:true ~retries:2 [ bad; good ] with
  | [ b; g ] ->
    Alcotest.(check bool) "still failed" true (Result.is_error (Exp.Runner.result b));
    Alcotest.(check int) "all attempts recorded" 3 b.Exp.Runner.attempts;
    Alcotest.(check bool) "original spec kept" true (Exp.Spec.equal bad b.Exp.Runner.spec);
    Alcotest.(check int) "successful cell runs once" 1 g.Exp.Runner.attempts;
    let json = Exp.Report.cell_to_json b in
    Alcotest.(check (option int))
      "attempts rendered" (Some 3)
      (match Json.member "attempts" json with Some (Json.Int n) -> Some n | _ -> None)
  | _ -> Alcotest.fail "expected two cells"

(* Seed perturbation is deterministic and injective over attempts, so a
   retried stochastic cell replays identically in a rerun. *)
let test_perturb_seed () =
  Alcotest.(check int) "attempt 0 is identity" 99 (Exp.Spec.perturb_seed 99 ~attempt:0);
  Alcotest.(check bool)
    "attempts diverge" true
    (Exp.Spec.perturb_seed 99 ~attempt:1 <> Exp.Spec.perturb_seed 99 ~attempt:2)

(* The circuit breaker: once the failure budget is spent, the rest of a
   serial sweep is skipped (not run, not failed) and says so in JSONL. *)
let test_circuit_breaker () =
  let bad i = Exp.Spec.v ~n_instrs ~seed:i ~app:"no-such-app" (Exp.Spec.Policy "lru") in
  let good = Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "lru") in
  match Exp.Runner.run ~jobs:1 ~quiet:true ~max_failures:1 [ bad 1; bad 2; good ] with
  | [ a; b; c ] ->
    Alcotest.(check bool)
      "first failure recorded" true
      (match a.Exp.Runner.status with Exp.Runner.Failed _ -> true | _ -> false);
    let skipped (cell : Exp.Runner.cell) =
      match cell.Exp.Runner.status with Exp.Runner.Skipped _ -> true | _ -> false
    in
    Alcotest.(check bool) "second cell skipped" true (skipped b);
    Alcotest.(check bool) "good cell skipped too" true (skipped c);
    Alcotest.(check (option string))
      "skipped status rendered" (Some "skipped")
      (match Json.member "status" (Exp.Report.cell_to_json c) with
      | Some (Json.String s) -> Some s
      | _ -> None)
  | _ -> Alcotest.fail "expected three cells"

(* Jobs-parity must survive failed and retried cells: rows for failures
   carry the error message, not timing or scheduling artefacts, so a
   sweep with broken cells still renders byte-identically across pool
   sizes. *)
let test_parity_with_failures () =
  let open Exp.Spec in
  let specs =
    List.concat_map
      (fun app ->
        [
          v ~n_instrs ~app (Policy "lru");
          v ~n_instrs ~app (Policy "no-such-policy");
          v ~n_instrs ~app:(app ^ "-missing") (Policy "lru");
          v ~n_instrs ~app (Ripple { policy = "lru"; threshold = 0.5 });
        ])
      [ "finagle-http"; "verilator" ]
  in
  let serial = Exp.Runner.run ~jobs:1 ~quiet:true ~retries:1 specs in
  let parallel = Exp.Runner.run ~jobs:4 ~quiet:true ~retries:1 specs in
  Alcotest.(check string)
    "failed/retried sweep byte-identical across jobs" (Exp.Report.to_jsonl serial)
    (Exp.Report.to_jsonl parallel);
  Alcotest.(check int)
    "failures present" 4
    (List.length
       (List.filter (fun c -> Result.is_error (Exp.Runner.result c)) serial))

let test_prng_seed_distinct () =
  let s1 = Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "random") in
  let s2 = { s1 with Exp.Spec.seed = 4321 } in
  let s3 = { s1 with Exp.Spec.app = "verilator" } in
  Alcotest.(check bool)
    "seed field changes stream" true
    (Exp.Spec.prng_seed s1 <> Exp.Spec.prng_seed s2);
  Alcotest.(check bool)
    "app changes stream" true
    (Exp.Spec.prng_seed s1 <> Exp.Spec.prng_seed s3);
  Alcotest.(check int) "prng_seed stable" (Exp.Spec.prng_seed s1) (Exp.Spec.prng_seed s1)

(* Shard ranges tile [0, sets) exactly: contiguous, disjoint, in order,
   clamped when there are more shards than sets. *)
let test_shard_ranges () =
  List.iter
    (fun (sets, shards) ->
      let rs = Exp.Shard.ranges ~sets ~shards in
      Alcotest.(check bool) "non-empty" true (Array.length rs > 0);
      Alcotest.(check int) "starts at 0" 0 (fst rs.(0));
      Alcotest.(check int) "ends at sets" sets (snd rs.(Array.length rs - 1));
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check bool) "non-empty range" true (lo < hi);
          if i > 0 then Alcotest.(check int) "contiguous" lo (snd rs.(i - 1)))
        rs)
    [ (64, 1); (64, 4); (64, 7); (3, 8); (1, 5) ]

(* Set-sharded ideal replacement is an execution strategy, not a model
   change: the merged result equals the unsharded oracle exactly, at
   any shard count. *)
let test_sharded_oracle_identity () =
  let module W = Ripple_workloads in
  let module Simulator = Cpu.Simulator in
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:80_000 in
  let program = w.W.Cfg_gen.program in
  let warmup = Array.length trace / 2 in
  let prefetcher = Simulator.prefetcher_fdip in
  let stream = Simulator.record_stream_indexed ~program ~trace ~prefetcher () in
  let unsharded =
    Simulator.oracle ~warmup ~stream ~mode:Cache.Belady.Demand_min ~program ~trace
      ~prefetcher ()
  in
  List.iter
    (fun shards ->
      let sharded =
        Exp.Shard.oracle ~shards ~warmup ~stream ~mode:Cache.Belady.Demand_min ~program
          ~trace ~prefetcher ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d equals unsharded" shards)
        true (sharded = unsharded))
    [ 2; 5 ]

(* Backing, sampling and sharding are representation/execution choices:
   the sweep JSONL must not change when any of them does (sampling only
   for cells it does not apply to — here Oracle/Ideal cells — while
   Policy/Ripple cells record their sampled rows deterministically). *)
let test_backing_shard_jsonl_identity () =
  let open Exp.Spec in
  let specs =
    [
      v ~n_instrs ~app:"finagle-http" (Policy "lru");
      v ~n_instrs ~app:"finagle-http" ~prefetch:Core.Pipeline.Fdip Oracle;
      v ~n_instrs ~app:"finagle-http" (Ripple { policy = "lru"; threshold = 0.5 });
    ]
  in
  let baseline = Exp.Report.to_jsonl (Exp.Runner.run ~jobs:2 ~quiet:true specs) in
  let spill =
    Exp.Report.to_jsonl
      (Exp.Runner.run ~backing:(Ripple_util.Int_stream.spill ()) ~jobs:2 ~quiet:true specs)
  in
  Alcotest.(check string) "mmap backing JSONL byte-identical" baseline spill;
  let sharded = Exp.Report.to_jsonl (Exp.Runner.run ~shards:3 ~jobs:1 ~quiet:true specs) in
  Alcotest.(check string) "sharded oracle JSONL byte-identical" baseline sharded;
  Alcotest.(check int)
    "no spill files leaked" 0
    (List.length (Ripple_util.Int_stream.Spill.live ()))

(* Cells that share a recorded stream replay it; a lone policy cell
   drives the front end and a lone oracle cell records for itself.  Each
   cell's result and metrics equal those of the cell run on its own, and
   the sweep closes every recording it made. *)
let test_shared_recordings () =
  let open Exp.Spec in
  let fdip = Core.Pipeline.Fdip and nlp = Core.Pipeline.Nlp in
  let none = Core.Pipeline.No_prefetch in
  let specs =
    [
      v ~n_instrs ~app:"finagle-http" ~prefetch:fdip (Policy "lru");
      v ~n_instrs ~app:"finagle-http" ~prefetch:fdip (Policy "srrip");
      v ~n_instrs ~app:"finagle-http" ~prefetch:fdip Oracle;
      v ~n_instrs ~app:"finagle-http" ~prefetch:nlp (Policy "drrip");
      v ~n_instrs ~app:"finagle-http" ~prefetch:nlp (Policy "ship");
      v ~n_instrs ~app:"finagle-http" ~prefetch:none (Policy "hawkeye");
      v ~n_instrs ~app:"verilator" ~prefetch:fdip Oracle;
    ]
  in
  let backing = Ripple_util.Int_stream.spill () in
  let cells = Exp.Runner.run ~backing ~jobs:2 ~quiet:true specs in
  Alcotest.(check int)
    "every recording closed" 0
    (List.length (Ripple_util.Int_stream.Spill.live ()));
  let json r = Json.to_string (Cpu.Simulator.result_to_json r) in
  let metrics o = Json.to_string (Ripple_obs.Snapshot.to_json o.Exp.Runner.metrics) in
  List.iter
    (fun (c : Exp.Runner.cell) ->
      let name = Exp.Spec.to_string c.Exp.Runner.spec in
      match Exp.Runner.result c with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok o ->
        let alone = Exp.Runner.run_spec c.Exp.Runner.spec in
        Alcotest.(check string) (name ^ " result") (json alone.Exp.Runner.result)
          (json o.Exp.Runner.result);
        Alcotest.(check string) (name ^ " metrics") (metrics alone) (metrics o))
    cells

(* A sampled sweep is deterministic in the sampling spec — identical
   across reruns and job counts — and its rows carry the sample report. *)
let test_sampled_sweep_deterministic () =
  let open Exp.Spec in
  let sampling = Cpu.Simulator.Sampling.v ~windows:3 ~window_blocks:500 () in
  let specs =
    [
      v ~n_instrs ~app:"finagle-http" (Ripple { policy = "lru"; threshold = 0.5 });
      v ~n_instrs ~app:"verilator" (Ripple { policy = "lru"; threshold = 0.5 });
    ]
  in
  let a = Exp.Runner.run ~sampling ~jobs:1 ~quiet:true specs in
  let b = Exp.Runner.run ~sampling ~jobs:2 ~quiet:true specs in
  Alcotest.(check string)
    "sampled sweep byte-identical across jobs" (Exp.Report.to_jsonl a)
    (Exp.Report.to_jsonl b);
  List.iter
    (fun (c : Exp.Runner.cell) ->
      match Exp.Runner.result c with
      | Ok { Exp.Runner.evaluation = Some ev; _ } ->
        (match ev.Core.Pipeline.sample with
        | Some r ->
          Alcotest.(check bool)
            "partial coverage" true
            (r.Cpu.Simulator.Sampling.coverage < 1.0)
        | None -> Alcotest.fail "sampled cell should carry a sample report");
        Alcotest.(check bool)
          "sample report rendered" true
          (Json.member "sample" (Core.Pipeline.evaluation_to_json ev) <> None)
      | Ok _ -> Alcotest.fail "ripple cell should carry an evaluation"
      | Error e -> Alcotest.fail e)
    a

(* Every registry entry must construct a live policy at the paper's
   Table II L1I geometry and report a sane storage budget. *)
let test_registry_complete () =
  let geo = Cache.Geometry.l1i in
  let sets = Cache.Geometry.sets geo and ways = geo.Cache.Geometry.ways in
  Alcotest.(check bool) "registry non-empty" true (List.length Cache.Registry.all >= 7);
  List.iter
    (fun (e : Cache.Registry.entry) ->
      let p =
        e.Cache.Registry.factory ~seed:1
          ~params:(Cache.Registry.Param.defaults e.Cache.Registry.params)
          ~sets ~ways
      in
      Alcotest.(check bool)
        (e.Cache.Registry.name ^ " storage_bits sane")
        true
        (p.Cache.Policy.storage_bits >= 0);
      Alcotest.(check bool)
        (e.Cache.Registry.name ^ " victim in range")
        true
        (let v = p.Cache.Policy.victim ~set:0 in
         v >= 0 && v < ways))
    Cache.Registry.all;
  Alcotest.(check bool) "find is case-insensitive" true (Cache.Registry.find "LRU" <> None);
  Alcotest.(check bool) "unknown name rejected" true (Cache.Registry.find "plru" = None);
  match Cache.Registry.find_exn "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find_exn should raise on unknown names"

let roundtrip name json =
  match Json.parse (Json.to_string json) with
  | Ok parsed -> Alcotest.(check bool) (name ^ " round-trips") true (Json.equal json parsed)
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_json_roundtrip () =
  let spec = Exp.Spec.v ~n_instrs ~app:"finagle-http" (Exp.Spec.Policy "lru") in
  let outcome = Exp.Runner.run_spec spec in
  roundtrip "simulator result" (Cpu.Simulator.result_to_json outcome.Exp.Runner.result);
  let rspec =
    Exp.Spec.v ~n_instrs ~app:"finagle-http"
      (Exp.Spec.Ripple { policy = "lru"; threshold = 0.5 })
  in
  let cells = Exp.Runner.run ~jobs:1 ~quiet:true [ rspec ] in
  let cell = List.hd cells in
  (match Exp.Runner.result cell with
  | Ok { Exp.Runner.evaluation = Some ev; _ } ->
    roundtrip "evaluation" (Core.Pipeline.evaluation_to_json ev)
  | Ok _ -> Alcotest.fail "ripple cell should carry an evaluation"
  | Error e -> Alcotest.fail e);
  roundtrip "cell" (Exp.Report.cell_to_json cell);
  roundtrip "spec" (Exp.Spec.to_json rspec)

let suites =
  [
    ( "exp",
      [
        Alcotest.test_case "parallel determinism" `Slow test_parallel_determinism;
        Alcotest.test_case "parallel determinism (memoized oracle streams)" `Slow
          test_parallel_determinism_with_memoized_streams;
        Alcotest.test_case "write_jsonl creates parent dirs" `Slow
          test_write_jsonl_creates_parents;
        Alcotest.test_case "write_jsonl removes temp on failed rename" `Quick
          test_write_jsonl_temp_cleanup;
        Alcotest.test_case "repeated spec identical" `Slow test_repeat_spec_identical;
        Alcotest.test_case "failed-cell isolation" `Slow test_failed_cell_isolation;
        Alcotest.test_case "retries recorded" `Slow test_retries_recorded;
        Alcotest.test_case "perturb_seed deterministic" `Quick test_perturb_seed;
        Alcotest.test_case "circuit breaker skips remainder" `Slow test_circuit_breaker;
        Alcotest.test_case "parity with failed/retried cells" `Slow test_parity_with_failures;
        Alcotest.test_case "prng seeds distinct" `Quick test_prng_seed_distinct;
        Alcotest.test_case "shard ranges tile the sets" `Quick test_shard_ranges;
        Alcotest.test_case "sharded oracle = unsharded" `Slow test_sharded_oracle_identity;
        Alcotest.test_case "backing/shards leave JSONL unchanged" `Slow
          test_backing_shard_jsonl_identity;
        Alcotest.test_case "shared recordings = cells run alone" `Slow test_shared_recordings;
        Alcotest.test_case "sampled sweep deterministic" `Slow test_sampled_sweep_deterministic;
        Alcotest.test_case "registry complete at Table II geometry" `Quick
          test_registry_complete;
        Alcotest.test_case "json round-trip" `Slow test_json_roundtrip;
      ] );
  ]

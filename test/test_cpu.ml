(* Tests for ripple.cpu: configuration, hierarchy and the trace-driven
   simulator. *)

module Basic_block = Ripple_isa.Basic_block
module Builder = Ripple_isa.Builder
module Program = Ripple_isa.Program
module Cache = Ripple_cache
module Config = Ripple_cpu.Config
module Hierarchy = Ripple_cpu.Hierarchy
module Simulator = Ripple_cpu.Simulator
module W = Ripple_workloads

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-6)

let test_config_defaults () =
  let c = Config.default in
  checki "l1 latency" 3 c.Config.l1_latency;
  checki "l2 latency" 12 c.Config.l2_latency;
  checki "l3 latency" 36 c.Config.l3_latency;
  checki "memory latency" 260 c.Config.memory_latency;
  checki "cores" 20 c.Config.cores_per_socket;
  checki "l1i sets" 64 (Cache.Geometry.sets c.Config.l1i)

let test_config_penalties () =
  let c = Config.default in
  checki "l2 penalty" (12 - 3 + c.Config.frontend_bubble) (Config.miss_penalty c ~hit_level:`L2);
  checki "memory penalty" (260 - 3 + c.Config.frontend_bubble)
    (Config.miss_penalty c ~hit_level:`Memory)

let test_config_table_renders () =
  let s = Format.asprintf "%a" Config.pp_table Config.default in
  checkb "mentions 32 KiB" true
    (let needle = "32 KiB" in
     let nl = String.length needle and hl = String.length s in
     let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
     go 0)

let test_hierarchy_levels () =
  let h = Hierarchy.create Config.default in
  checkb "first fetch from memory" true (Hierarchy.fetch h 1000 = Hierarchy.Memory);
  checkb "second fetch hits l2" true (Hierarchy.fetch h 1000 = Hierarchy.L2);
  checki "penalty l2" (Config.miss_penalty Config.default ~hit_level:`L2)
    (Hierarchy.penalty Config.default Hierarchy.L2)

let test_hierarchy_l3_capture () =
  (* Touch enough distinct lines to overflow L2 (1 MiB = 16384 lines) but
     not L3; re-touching them should then hit L3. *)
  let h = Hierarchy.create Config.default in
  let n = 20_000 in
  for line = 0 to n - 1 do
    ignore (Hierarchy.fetch h line)
  done;
  (* Line 0 was evicted from L2 (LRU) but lives in L3. *)
  checkb "old line in l3" true (Hierarchy.fetch h 0 = Hierarchy.L3)

(* A trivial two-block program for controlled timing checks. *)
let tiny_program () =
  let b = Builder.create () in
  let first = Builder.block b ~bytes:64 ~n_instrs:16 ~term:Basic_block.Halt () in
  let second = Builder.block b ~bytes:64 ~n_instrs:16 ~term:Basic_block.Halt () in
  Builder.set_term b first (Basic_block.Fallthrough second);
  Builder.set_term b second (Basic_block.Jump first);
  Builder.finish b ~entry:first

(* The recorder over an in-heap trace, its position index as an array. *)
let record ~program ~trace ~prefetcher =
  let stream, pos =
    Simulator.record_stream_indexed_trace ~program ~trace:(Simulator.Trace.Blocks trace)
      ~prefetcher ()
  in
  (stream, Ripple_util.Int_stream.to_array pos)

let test_ideal_cache_cycles () =
  let program = tiny_program () in
  let trace = Array.init 100 (fun i -> i mod 2) in
  let r = Simulator.ideal_cache ~program ~trace () in
  checki "instructions" 1600 r.Simulator.instructions;
  checkf "cycles = cpi * instrs" (Config.default.Config.cpi_base *. 1600.0) r.Simulator.cycles;
  checki "no misses" 0 r.Simulator.demand_misses

let test_run_counts_misses_and_cycles () =
  let program = tiny_program () in
  let trace = Array.init 100 (fun i -> i mod 2) in
  let r =
    Simulator.run ~program ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  (* Two lines, both cold-miss once then always hit. *)
  checki "two misses" 2 r.Simulator.demand_misses;
  checki "served by memory" 2 r.Simulator.served_memory;
  checkb "slower than ideal" true
    (r.Simulator.cycles > (Simulator.ideal_cache ~program ~trace ()).Simulator.cycles);
  checkb "ipc sane" true (r.Simulator.ipc > 0.0 && r.Simulator.ipc < 2.0)

let test_run_warmup_excludes () =
  let program = tiny_program () in
  let trace = Array.init 100 (fun i -> i mod 2) in
  let r =
    Simulator.run ~warmup:50 ~program ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checki "half the instructions" 800 r.Simulator.instructions;
  checki "cold misses fell in warmup" 0 r.Simulator.demand_misses

let test_run_executes_hints () =
  let program = tiny_program () in
  let line0 = List.hd (Basic_block.lines (Program.block program 0)) in
  let hints = Array.make (Program.n_blocks program) [] in
  hints.(1) <- [ Basic_block.Invalidate line0 ];
  (* Block 1 invalidates block 0's line each time: every visit to block 0
     misses again. *)
  let instrumented, _ = Program.with_hints program ~hints in
  checki "hint targets block 0's line" line0
    (Basic_block.hint_line (Program.block instrumented 1).Basic_block.hints.(0));
  let trace = Array.init 100 (fun i -> i mod 2) in
  let fired = ref 0 in
  let resident_count = ref 0 in
  let r =
    Simulator.run
      ~on_hint:(fun ~at:_ _ ~resident -> incr fired; if resident then incr resident_count)
      ~program:instrumented ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checki "hint fired every visit" 50 !fired;
  checki "hint always found the line" 50 !resident_count;
  checki "hint instructions counted" 50 r.Simulator.hint_instructions;
  (* 50 misses on line0 (re-fetched after each invalidation) + 1 cold on
     line1. *)
  checki "misses from invalidation" 51 r.Simulator.demand_misses

let test_record_stream_demand_content () =
  let program = tiny_program () in
  let trace = [| 0; 1; 0 |] in
  let stream, pos = record ~program ~trace ~prefetcher:Simulator.prefetcher_none in
  checki "three accesses" 3 (Cache.Access_stream.length stream);
  check (Alcotest.array Alcotest.int) "trace positions" [| 0; 1; 2 |] pos;
  checkb "all demand" true
    (Array.for_all Cache.Access.is_demand (Cache.Access_stream.to_array stream))

let test_record_stream_includes_prefetches () =
  let program = tiny_program () in
  let trace = Array.init 20 (fun i -> i mod 2) in
  let stream, _ = record ~program ~trace ~prefetcher:(Simulator.prefetcher_nlp ?config:None) in
  checkb "has prefetch entries" true
    (Array.exists Cache.Access.is_prefetch (Cache.Access_stream.to_array stream))

let test_oracle_not_worse_than_lru () =
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:200_000 in
  let program = w.W.Cfg_gen.program in
  let lru =
    Simulator.run ~program ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let oracle =
    Simulator.oracle ~mode:Cache.Belady.Min ~program ~trace
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checkb "oracle <= lru misses" true (oracle.Simulator.demand_misses <= lru.Simulator.demand_misses);
  checkb "oracle >= cold misses" true
    (oracle.Simulator.demand_misses >= lru.Simulator.l1i.Cache.Stats.demand_misses_cold)

let test_oracle_warmup_consistent () =
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:200_000 in
  let program = w.W.Cfg_gen.program in
  let warmup = Array.length trace / 2 in
  let full =
    Simulator.oracle ~mode:Cache.Belady.Min ~program ~trace
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let steady =
    Simulator.oracle ~warmup ~mode:Cache.Belady.Min ~program ~trace
      ~prefetcher:Simulator.prefetcher_none ()
  in
  checkb "steady-state misses below full-trace misses" true
    (steady.Simulator.demand_misses < full.Simulator.demand_misses);
  checkb "steady-state instructions below total" true
    (steady.Simulator.instructions < full.Simulator.instructions)

(* Window placement: deterministic in (spec, warmup, n), one span per
   stratum, ordered, disjoint, inside the steady-state region, and
   moved by the seed. *)
let test_sampling_select_properties () =
  let sampling = Simulator.Sampling.v ~seed:7 ~windows:5 ~window_blocks:100 () in
  let spans = Simulator.Sampling.select sampling ~warmup:1_000 ~n:10_000 in
  checki "five spans" 5 (Array.length spans);
  Array.iteri
    (fun i (lo, hi) ->
      checkb "span non-empty" true (lo < hi);
      checkb "span inside steady state" true (lo >= 1_000 && hi <= 10_000);
      if i > 0 then
        checkb "spans ordered and disjoint" true (snd spans.(i - 1) <= lo))
    spans;
  check (Alcotest.array (Alcotest.pair Alcotest.int Alcotest.int))
    "placement deterministic" spans
    (Simulator.Sampling.select sampling ~warmup:1_000 ~n:10_000);
  checkb "seed moves the windows" true
    (spans
    <> Simulator.Sampling.select
         { sampling with Simulator.Sampling.seed = 8 }
         ~warmup:1_000 ~n:10_000);
  let r = Simulator.Sampling.report_of_spans ~warmup:1_000 ~n:10_000 spans in
  checki "measured blocks" 500 r.Simulator.Sampling.measured_blocks;
  checki "total blocks" 9_000 r.Simulator.Sampling.total_blocks

(* Windows covering the whole steady-state region degenerate to — and
   must equal, field for field — the full run: same checkpoint/restore
   machinery, zero sampling error by construction. *)
let test_sampling_degenerate_exact () =
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:120_000 in
  let program = w.W.Cfg_gen.program in
  let warmup = Array.length trace / 2 in
  let policy = Cache.Lru.make and prefetcher = Simulator.prefetcher_fdip in
  let full = Simulator.run ~warmup ~program ~trace ~policy ~prefetcher () in
  let sampling = Simulator.Sampling.v ~windows:1 ~window_blocks:(Array.length trace) () in
  let sampled, report =
    Simulator.run_trace ~warmup ~sampling ~program ~trace:(Simulator.Trace.Blocks trace)
      ~policy ~prefetcher ()
  in
  checkb "degenerate sampled run equals full run" true (sampled = full);
  match report with
  | Some r -> checkf "coverage 1.0" 1.0 r.Simulator.Sampling.coverage
  | None -> Alcotest.fail "sampled run must return a report"

(* A genuinely sampled run measures less, stays deterministic, and its
   IPC lands near the full run's. *)
let test_sampling_run_deterministic () =
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:120_000 in
  let program = w.W.Cfg_gen.program in
  let warmup = Array.length trace / 2 in
  let policy = Cache.Lru.make and prefetcher = Simulator.prefetcher_fdip in
  let sampling = Simulator.Sampling.v ~windows:4 ~window_blocks:1_000 () in
  let run () =
    Simulator.run_trace ~warmup ~sampling ~program ~trace:(Simulator.Trace.Blocks trace)
      ~policy ~prefetcher ()
  in
  let a, ra = run () in
  let b, _ = run () in
  checkb "sampled run deterministic" true (a = b);
  (match ra with
  | Some r ->
    checki "measured what was asked" 4_000 r.Simulator.Sampling.measured_blocks;
    checkb "partial coverage" true (r.Simulator.Sampling.coverage < 1.0)
  | None -> Alcotest.fail "sampled run must return a report");
  let full = Simulator.run ~warmup ~program ~trace ~policy ~prefetcher () in
  checkb "sampled IPC within 15% of full" true
    (Float.abs (a.Simulator.ipc -. full.Simulator.ipc) /. full.Simulator.ipc < 0.15)

(* The trace representation is invisible: a run over an mmap-backed
   Int_stream equals the run over the int array it came from. *)
let test_run_trace_stream_equivalence () =
  let module Int_stream = Ripple_util.Int_stream in
  let w = W.Cfg_gen.generate W.Apps.kafka in
  let trace = W.Executor.run w ~input:W.Executor.train ~n_instrs:60_000 in
  let program = w.W.Cfg_gen.program in
  let warmup = Array.length trace / 2 in
  let policy = Cache.Lru.make and prefetcher = Simulator.prefetcher_fdip in
  let from_blocks = Simulator.run ~warmup ~program ~trace ~policy ~prefetcher () in
  let stream = Int_stream.of_array ~backing:(Int_stream.spill ()) trace in
  let from_stream =
    fst
      (Simulator.run_trace ~warmup ~program ~trace:(Simulator.Trace.Stream stream) ~policy
         ~prefetcher ())
  in
  Int_stream.close stream;
  checkb "stream trace equals block trace" true (from_stream = from_blocks)

(* ------------------- replay vs the front-end driver ------------------ *)

(* The unsampled [Simulator.run_trace] as it stood before runs over a
   recorded stream and the shared access/end-of-block steps existed,
   reproduced verbatim (modulo module qualification; [finish] and the
   duel observer are private to the simulator and copied too).  Today's
   [run_trace], live and over a recording, must match it in result,
   observed metrics and hint-observation sequence. *)
module Old_sim = struct
  module Access = Cache.Access
  module Stats = Cache.Stats
  module Prefetcher = Ripple_prefetch.Prefetcher
  module Obs = Ripple_obs

  let observe_duel obs l1 =
    match Cache.Cache.duel l1 with
    | None -> ()
    | Some d ->
      let reg = Obs.Run.registry obs in
      Simulator.register_obs reg;
      let add name v = Obs.Metric.add (Obs.Registry.counter reg name) v in
      add "ripple_duel_leader_a_misses" (Cache.Dueling.a_misses d);
      add "ripple_duel_leader_b_misses" (Cache.Dueling.b_misses d);
      add "ripple_duel_flips" (Cache.Dueling.flips d);
      Obs.Metric.set
        (Obs.Registry.gauge reg "ripple_duel_psel")
        (Float.of_int (Cache.Dueling.psel d))

  let block_lines program =
    Array.map
      (fun b -> Array.of_list (Basic_block.lines b))
      (Program.blocks program)

  let finish ~(config : Config.t) ~instructions ~hint_instructions ~miss_cycles ~l1i ~l2_served
      ~l3_served ~mem_served =
    let original = instructions - hint_instructions in
    let cycles =
      (config.Config.cpi_base *. Float.of_int original)
      +. (config.Config.hint_cpi *. Float.of_int hint_instructions)
      +. (config.Config.miss_exposure *. miss_cycles)
    in
    let ipc = if cycles > 0.0 then Float.of_int original /. cycles else 0.0 in
    {
      Simulator.instructions;
      hint_instructions;
      cycles;
      ipc;
      demand_misses = l1i.Stats.demand_misses;
      mpki = Stats.mpki l1i ~instructions:original;
      l1i;
      served_l2 = l2_served;
      served_l3 = l3_served;
      served_memory = mem_served;
    }

  let run_trace ?(config = Config.default) ?(warmup = 0) ?obs
      ?(on_hint = fun ~at:_ _ ~resident:_ -> ()) ~program ~(trace : Simulator.Trace.t) ~policy
      ~prefetcher () =
    let n = Simulator.Trace.length trace in
    let l1 = Cache.Cache.create ~geometry:config.Config.l1i ~policy () in
    let hierarchy = Hierarchy.create config in
    let pf = prefetcher program in
    let lines = block_lines program in
    let blocks = Program.blocks program in
    let instructions = ref 0 in
    let hint_instructions = ref 0 in
    let miss_cycles = ref 0 in
    let l2_served = ref 0 and l3_served = ref 0 and mem_served = ref 0 in
    let hints_observed = ref true in
    let complete_prefetch (acc : Access.packed) =
      match Cache.Cache.access_packed l1 acc with
      | Cache.Cache.Hit -> ()
      | Cache.Cache.Miss -> ignore (Hierarchy.fetch hierarchy (Access.packed_line acc))
    in
    let rec complete_all = function
      | [] -> ()
      | acc :: rest ->
        complete_all rest;
        complete_prefetch acc
    in
    let delay = max 0 config.Config.prefetch_latency_blocks in
    let slots = delay + 1 in
    let in_flight = Array.make slots [] in
    let flush_due ~at =
      let slot = at mod slots in
      complete_all in_flight.(slot);
      in_flight.(slot) <- []
    in
    let rec issue_all ~at = function
      | [] -> ()
      | (acc : Access.packed) :: rest ->
        let slot = (at + delay) mod slots in
        in_flight.(slot) <- acc :: in_flight.(slot);
        issue_all ~at rest
    in
    let demand ~block line =
      match Cache.Cache.access_packed l1 (Access.pack_demand ~line ~block) with
      | Cache.Cache.Hit -> false
      | Cache.Cache.Miss ->
        let served = Hierarchy.fetch hierarchy line in
        (match served with
        | Hierarchy.L2 -> incr l2_served
        | Hierarchy.L3 -> incr l3_served
        | Hierarchy.Memory -> incr mem_served);
        miss_cycles := !miss_cycles + Hierarchy.penalty config served;
        true
    in
    let reset_counters () =
      Stats.reset (Cache.Cache.stats l1);
      miss_cycles := 0;
      instructions := 0;
      hint_instructions := 0;
      l2_served := 0;
      l3_served := 0;
      mem_served := 0
    in
    let step at =
      let id = Simulator.Trace.get trace at in
      let b = blocks.(id) in
      flush_due ~at;
      issue_all ~at (pf.Prefetcher.on_block b);
      let bl = lines.(id) in
      for i = 0 to Array.length bl - 1 do
        let missed = demand ~block:id bl.(i) in
        issue_all ~at (pf.Prefetcher.on_demand ~line:bl.(i) ~missed)
      done;
      let hints = b.Basic_block.hints in
      for i = 0 to Array.length hints - 1 do
        let hint = hints.(i) in
        let line = Basic_block.hint_line hint in
        if !hints_observed then on_hint ~at hint ~resident:(Cache.Cache.contains l1 line);
        (match hint with
        | Basic_block.Invalidate line -> Cache.Cache.invalidate l1 line
        | Basic_block.Demote line -> Cache.Cache.demote l1 line);
        incr hint_instructions
      done;
      instructions := !instructions + Basic_block.total_instrs b
    in
    let sampler =
      match obs with
      | None -> None
      | Some obs ->
        let reg = Obs.Run.registry obs in
        Simulator.register_obs reg;
        let ipc_series = Obs.Registry.series reg "ripple_sim_ipc" in
        let mpki_series = Obs.Registry.series reg "ripple_sim_mpki" in
        let every = max 1 (n / 16) in
        Some
          (fun at ->
            if (at + 1) mod every = 0 then begin
              let original = !instructions - !hint_instructions in
              if original > 0 then begin
                let cycles =
                  (config.Config.cpi_base *. Float.of_int original)
                  +. (config.Config.hint_cpi *. Float.of_int !hint_instructions)
                  +. (config.Config.miss_exposure *. Float.of_int !miss_cycles)
                in
                Obs.Metric.sample ipc_series ~at
                  (if cycles > 0.0 then Float.of_int original /. cycles else 0.0);
                Obs.Metric.sample mpki_series ~at
                  (Stats.mpki (Cache.Cache.stats l1) ~instructions:original)
              end
            end)
    in
    for at = 0 to n - 1 do
      if at = warmup && warmup > 0 then reset_counters ();
      step at;
      match sampler with Some f -> f at | None -> ()
    done;
    let result =
      finish ~config ~instructions:!instructions ~hint_instructions:!hint_instructions
        ~miss_cycles:(Float.of_int !miss_cycles) ~l1i:(Cache.Cache.stats l1)
        ~l2_served:!l2_served ~l3_served:!l3_served ~mem_served:!mem_served
    in
    (match obs with
    | Some o ->
      Simulator.observe_result o result;
      observe_duel o l1
    | None -> ());
    result

  (* The sampled [Simulator.run_trace] as it stood before the measured
     counters became one tally record: the shared front end, the timing
     engine with its six hand-spliced counters, and the window loop,
     reproduced verbatim (modulo module qualification). *)
  let front_end ~(config : Config.t) ~program ~prefetcher
      ~(access : at:int -> Access.packed -> bool) =
    let pf = prefetcher program in
    let lines = block_lines program in
    let blocks = Program.blocks program in
    let rec complete_all ~at = function
      | [] -> ()
      | acc :: rest ->
        complete_all ~at rest;
        ignore (access ~at acc : bool)
    in
    let delay = max 0 config.Config.prefetch_latency_blocks in
    let slots = delay + 1 in
    let in_flight = Array.make slots [] in
    let rec issue_all ~at = function
      | [] -> ()
      | (acc : Access.packed) :: rest ->
        let slot = (at + delay) mod slots in
        in_flight.(slot) <- acc :: in_flight.(slot);
        issue_all ~at rest
    in
    let step ~at id =
      let slot = at mod slots in
      complete_all ~at in_flight.(slot);
      in_flight.(slot) <- [];
      issue_all ~at (pf.Prefetcher.on_block blocks.(id));
      let bl = lines.(id) in
      for i = 0 to Array.length bl - 1 do
        let missed = access ~at (Access.pack_demand ~line:bl.(i) ~block:id) in
        issue_all ~at (pf.Prefetcher.on_demand ~line:bl.(i) ~missed)
      done
    in
    let save () =
      let restore_pf = pf.Prefetcher.save () in
      let in_flight' = Array.copy in_flight in
      fun () ->
        restore_pf ();
        Array.blit in_flight' 0 in_flight 0 slots
    in
    (step, save)

  type engine = {
    config : Config.t;
    l1 : Cache.Cache.t;
    hierarchy : Hierarchy.t;
    blocks : Basic_block.t array;
    on_hint : at:int -> Basic_block.hint -> resident:bool -> unit;
    mutable hints_observed : bool;
    mutable instructions : int;
    mutable hint_instructions : int;
    mutable miss_cycles : int;
    mutable l2_served : int;
    mutable l3_served : int;
    mutable mem_served : int;
  }

  let engine ~(config : Config.t) ~policy ~on_hint program =
    {
      config;
      l1 = Cache.Cache.create ~geometry:config.Config.l1i ~policy ();
      hierarchy = Hierarchy.create config;
      blocks = Program.blocks program;
      on_hint;
      hints_observed = true;
      instructions = 0;
      hint_instructions = 0;
      miss_cycles = 0;
      l2_served = 0;
      l3_served = 0;
      mem_served = 0;
    }

  let access e (acc : Access.packed) =
    match Cache.Cache.access_packed e.l1 acc with
    | Cache.Cache.Hit -> false
    | Cache.Cache.Miss ->
      let served = Hierarchy.fetch e.hierarchy (Access.packed_line acc) in
      if Access.packed_is_demand acc then begin
        (match served with
        | Hierarchy.L2 -> e.l2_served <- e.l2_served + 1
        | Hierarchy.L3 -> e.l3_served <- e.l3_served + 1
        | Hierarchy.Memory -> e.mem_served <- e.mem_served + 1);
        e.miss_cycles <- e.miss_cycles + Hierarchy.penalty e.config served;
        true
      end
      else false

  let end_block e ~at id =
    let b = e.blocks.(id) in
    let hints = b.Basic_block.hints in
    for i = 0 to Array.length hints - 1 do
      let hint = hints.(i) in
      let line = Basic_block.hint_line hint in
      if e.hints_observed then e.on_hint ~at hint ~resident:(Cache.Cache.contains e.l1 line);
      (match hint with
      | Basic_block.Invalidate line -> Cache.Cache.invalidate e.l1 line
      | Basic_block.Demote line -> Cache.Cache.demote e.l1 line);
      e.hint_instructions <- e.hint_instructions + 1
    done;
    e.instructions <- e.instructions + Basic_block.total_instrs b

  let reset_counters e =
    Stats.reset (Cache.Cache.stats e.l1);
    e.miss_cycles <- 0;
    e.instructions <- 0;
    e.hint_instructions <- 0;
    e.l2_served <- 0;
    e.l3_served <- 0;
    e.mem_served <- 0

  let observe obs e result =
    match obs with
    | Some o ->
      Simulator.observe_result o result;
      observe_duel o e.l1
    | None -> ()

  let run_sampled ?(config = Config.default) ?(warmup = 0) ?obs
      ?(on_hint = fun ~at:_ _ ~resident:_ -> ()) ~(sampling : Simulator.Sampling.t) ~program
      ~(trace : Simulator.Trace.t) ~policy ~prefetcher () =
    let n = Simulator.Trace.length trace in
    let e = engine ~config ~policy ~on_hint program in
    let fetch, save_front_end =
      front_end ~config ~program ~prefetcher ~access:(fun ~at:_ acc -> access e acc)
    in
    let step at =
      let id = Simulator.Trace.get trace at in
      fetch ~at id;
      end_block e ~at id
    in
    let spans = Simulator.Sampling.select ~warmup ~n sampling in
    for at = 0 to min warmup n - 1 do
      step at
    done;
    reset_counters e;
    let restore =
      let restore_l1 = Cache.Cache.save e.l1 in
      let restore_hierarchy = Hierarchy.save e.hierarchy in
      let restore_front_end = save_front_end () in
      fun () ->
        restore_l1 ();
        restore_hierarchy ();
        restore_front_end ()
    in
    let total_stats = Stats.create () in
    let t_instr = ref 0 and t_hint = ref 0 and t_miss = ref 0 in
    let t_l2 = ref 0 and t_l3 = ref 0 and t_mem = ref 0 in
    Array.iter
      (fun (w_start, w_end) ->
        restore ();
        e.hints_observed <- false;
        for at = max warmup (w_start - sampling.Simulator.Sampling.warm_blocks) to w_start - 1 do
          step at
        done;
        e.hints_observed <- true;
        let snap = Stats.copy (Cache.Cache.stats e.l1) in
        let s_instr = e.instructions and s_hint = e.hint_instructions in
        let s_miss = e.miss_cycles in
        let s_l2 = e.l2_served and s_l3 = e.l3_served and s_mem = e.mem_served in
        for at = w_start to w_end - 1 do
          step at
        done;
        t_instr := !t_instr + e.instructions - s_instr;
        t_hint := !t_hint + e.hint_instructions - s_hint;
        t_miss := !t_miss + e.miss_cycles - s_miss;
        t_l2 := !t_l2 + e.l2_served - s_l2;
        t_l3 := !t_l3 + e.l3_served - s_l3;
        t_mem := !t_mem + e.mem_served - s_mem;
        Stats.accumulate_delta ~into:total_stats ~before:snap ~after:(Cache.Cache.stats e.l1))
      spans;
    let result =
      finish ~config ~instructions:!t_instr ~hint_instructions:!t_hint
        ~miss_cycles:(Float.of_int !t_miss) ~l1i:total_stats ~l2_served:!t_l2
        ~l3_served:!t_l3 ~mem_served:!t_mem
    in
    observe obs e result;
    (result, Some (Simulator.Sampling.report_of_spans ~warmup ~n spans))
end

(* A small generated program with Invalidate/Demote hints sprinkled over
   its blocks, an executor trace over it, and a timing config whose L1I
   is small enough (sometimes) that every policy evicts constantly. *)
let gen_replay_case seed =
  let rng = Ripple_util.Prng.create ~seed in
  let pick a = a.(Ripple_util.Prng.int rng (Array.length a)) in
  let model =
    {
      W.Apps.verilator with
      W.App_model.name = "replay";
      seed;
      n_functions = 8 + Ripple_util.Prng.int rng 40;
      hot_functions = 2 + Ripple_util.Prng.int rng 4;
      handler_blocks = 4 + Ripple_util.Prng.int rng 10;
      blocks_per_function = 3 + Ripple_util.Prng.int rng 6;
    }
  in
  let w = W.Cfg_gen.generate model in
  let program = w.W.Cfg_gen.program in
  let blocks = Program.blocks program in
  let nb = Array.length blocks in
  let random_line () = pick (Array.of_list (Basic_block.lines (pick blocks))) in
  let density = pick [| 0.02; 0.3 |] in
  let hints =
    Array.init nb (fun _ ->
        if Ripple_util.Prng.chance rng density then
          List.init
            (1 + Ripple_util.Prng.int rng 2)
            (fun _ ->
              if Ripple_util.Prng.bool rng then Basic_block.Invalidate (random_line ())
              else Basic_block.Demote (random_line ()))
        else [])
  in
  let program, _ = Program.with_hints program ~hints in
  let trace =
    W.Executor.run w ~input:W.Executor.train ~n_instrs:(2_000 + Ripple_util.Prng.int rng 20_000)
  in
  let n = Array.length trace in
  (* Every case covers every warm-up shape: no warm-up, a random
     boundary, the last block, and boundaries at or past the end. *)
  let warmups = [| 0; Ripple_util.Prng.int rng (n + 1); n - 1; n; n + 7 |] in
  let config =
    {
      Config.default with
      Config.l1i =
        pick
          [|
            Cache.Geometry.l1i;
            Cache.Geometry.v ~size_bytes:4096 ~ways:4;
            Cache.Geometry.v ~size_bytes:2048 ~ways:2;
          |];
      prefetch_latency_blocks = pick [| 0; 1; 3 |];
    }
  in
  (program, trace, warmups, config)

let replay_prefetchers =
  [
    Simulator.prefetcher_none;
    (fun p -> Simulator.prefetcher_nlp p);
    (fun p -> Simulator.prefetcher_fdip p);
  ]

(* One driver's observable output: the result as JSON, the obs snapshot
   as JSON and every (at, hint, resident) observation in order. *)
let observed drive =
  let module Obs = Ripple_obs in
  let obs = Obs.Run.create () in
  let hints = ref [] in
  let on_hint ~at hint ~resident = hints := (at, hint, resident) :: !hints in
  let r = drive ~obs ~on_hint in
  ( Ripple_util.Json.to_string (Simulator.result_to_json r),
    Ripple_util.Json.to_string (Obs.Snapshot.to_json (Obs.Run.snapshot obs)),
    List.rev !hints )

let replay_matches_run_trace =
  QCheck.Test.make ~count:40
    ~name:"replay of the recorded stream equals the front-end run (every policy x none/nlp/fdip)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module Int_stream = Ripple_util.Int_stream in
      let program, blocks, warmups, config = gen_replay_case seed in
      List.for_all
        (fun (j, prefetcher) ->
          (* Alternate per prefetcher between an in-heap block array with
             a heap stream and a spill-backed trace with a spill stream. *)
          let spill = (seed + j) mod 2 = 0 in
          let backing = if spill then Int_stream.spill () else Int_stream.Heap in
          let trace =
            if spill then Simulator.Trace.Stream (Int_stream.of_array ~backing blocks)
            else Simulator.Trace.Blocks blocks
          in
          let stream, pos =
            Simulator.record_stream_indexed_trace ~config ~backing ~program ~trace ~prefetcher ()
          in
          let ok =
            List.for_all
              (fun (k, name) ->
                let warmup = warmups.((seed + k) mod Array.length warmups) in
                let policy () = Cache.Registry.factory ~seed name in
                let old =
                  observed (fun ~obs ~on_hint ->
                      Old_sim.run_trace ~config ~warmup ~obs ~on_hint ~program ~trace
                        ~policy:(policy ()) ~prefetcher ())
                in
                let live =
                  observed (fun ~obs ~on_hint ->
                      fst
                        (Simulator.run_trace ~config ~warmup ~obs ~on_hint ~program ~trace
                           ~policy:(policy ()) ~prefetcher ()))
                in
                let offered =
                  observed (fun ~obs ~on_hint ->
                      fst
                        (Simulator.run_trace ~config ~warmup ~obs ~on_hint
                           ~recorded:(fun () -> (stream, Int_stream.get pos))
                           ~program ~trace ~policy:(policy ()) ~prefetcher ()))
                in
                old = live && old = offered)
              (List.mapi (fun k name -> (k, name)) Cache.Registry.names)
          in
          Cache.Access_stream.close stream;
          Int_stream.close pos;
          Simulator.Trace.close trace;
          ok)
        (List.mapi (fun j prefetcher -> (j, prefetcher)) replay_prefetchers))

(* The sampled driver against its verbatim copy: one degenerate
   sampling (a single window covering the steady state) and one that
   really samples, for every policy and pipeline prefetcher. *)
let sampled_matches_old_sim =
  QCheck.Test.make ~count:12
    ~name:"sampled run equals the verbatim copy (every policy x none/nlp/fdip)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let program, blocks, warmups, config = gen_replay_case seed in
      let n = Array.length blocks in
      let trace = Simulator.Trace.Blocks blocks in
      let samplings =
        [
          Simulator.Sampling.v ~windows:1 ~window_blocks:(n + 1) ();
          Simulator.Sampling.v ~warm_blocks:(seed mod 64) ~seed ~windows:3
            ~window_blocks:(max 1 (n / 10)) ();
        ]
      in
      List.for_all
        (fun (j, prefetcher) ->
          List.for_all
            (fun (k, name) ->
              let warmup = warmups.((seed + j + k) mod Array.length warmups) in
              List.for_all
                (fun sampling ->
                  let drive run =
                    let report = ref None in
                    let o =
                      observed (fun ~obs ~on_hint ->
                          let r, rep =
                            run ~obs ~on_hint ~policy:(Cache.Registry.factory ~seed name)
                          in
                          report := rep;
                          r)
                    in
                    (o, !report)
                  in
                  let old =
                    drive (fun ~obs ~on_hint ~policy ->
                        Old_sim.run_sampled ~config ~warmup ~obs ~on_hint ~sampling ~program
                          ~trace ~policy ~prefetcher ())
                  in
                  let today =
                    drive (fun ~obs ~on_hint ~policy ->
                        Simulator.run_trace ~config ~warmup ~obs ~on_hint ~sampling ~program
                          ~trace ~policy ~prefetcher ())
                  in
                  old = today)
                samplings)
            (List.mapi (fun k name -> (k, name)) Cache.Registry.names))
        (List.mapi (fun j prefetcher -> (j, prefetcher)) replay_prefetchers))

(* A position index pointing past the trace is refused rather than read
   as a block id. *)
let test_replay_rejects_foreign_positions () =
  let program = tiny_program () in
  let trace = Array.init 10 (fun i -> i mod 2) in
  let prefetcher = Simulator.prefetcher_none in
  let stream, pos = record ~program ~trace ~prefetcher in
  let replay n =
    fst
      (Simulator.run_trace
         ~recorded:(fun () -> (stream, Array.get pos))
         ~program ~trace:(Simulator.Trace.Blocks (Array.sub trace 0 n)) ~policy:Cache.Lru.make
         ~prefetcher ())
  in
  checki "own trace" 10 (replay 10).Simulator.l1i.Cache.Stats.demand_accesses;
  match replay 5 with
  | _ -> Alcotest.fail "a 5-block trace must be refused"
  | exception Invalid_argument _ -> ()

(* A sampled run rewinds the prefetcher, so it must drive the front end
   even when a recording is on offer. *)
let test_sampled_run_ignores_recording () =
  let program = tiny_program () in
  let trace = Simulator.Trace.Blocks (Array.init 400 (fun i -> i mod 2)) in
  let sampling = Simulator.Sampling.v ~windows:2 ~window_blocks:50 () in
  let run ?recorded () =
    Simulator.run_trace ~warmup:100 ~sampling ?recorded ~program ~trace ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let offered =
    run ~recorded:(fun () -> Alcotest.fail "a sampled run read the recording") ()
  in
  Alcotest.(check string)
    "same result as without a recording"
    (Ripple_util.Json.to_string (Simulator.result_to_json (fst (run ()))))
    (Ripple_util.Json.to_string (Simulator.result_to_json (fst offered)))

let suites =
  [
    ( "cpu.config",
      [
        Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "penalties" `Quick test_config_penalties;
        Alcotest.test_case "table renders" `Quick test_config_table_renders;
      ] );
    ( "cpu.hierarchy",
      [
        Alcotest.test_case "levels" `Quick test_hierarchy_levels;
        Alcotest.test_case "l3 capture" `Quick test_hierarchy_l3_capture;
      ] );
    ( "cpu.simulator",
      [
        Alcotest.test_case "ideal cache cycles" `Quick test_ideal_cache_cycles;
        Alcotest.test_case "run counts" `Quick test_run_counts_misses_and_cycles;
        Alcotest.test_case "warmup excludes" `Quick test_run_warmup_excludes;
        Alcotest.test_case "executes hints" `Quick test_run_executes_hints;
        Alcotest.test_case "record stream demand" `Quick test_record_stream_demand_content;
        Alcotest.test_case "record stream prefetches" `Quick test_record_stream_includes_prefetches;
        Alcotest.test_case "oracle vs lru" `Quick test_oracle_not_worse_than_lru;
        Alcotest.test_case "oracle warmup" `Quick test_oracle_warmup_consistent;
        Alcotest.test_case "sampling window placement" `Quick test_sampling_select_properties;
        Alcotest.test_case "sampling degenerate = full" `Slow test_sampling_degenerate_exact;
        Alcotest.test_case "sampling deterministic" `Slow test_sampling_run_deterministic;
        Alcotest.test_case "stream trace = block trace" `Slow test_run_trace_stream_equivalence;
      ] );
    ( "cpu.replay",
      [
        QCheck_alcotest.to_alcotest replay_matches_run_trace;
        Alcotest.test_case "foreign positions refused" `Quick test_replay_rejects_foreign_positions;
        Alcotest.test_case "sampled runs ignore the recording" `Quick
          test_sampled_run_ignores_recording;
        QCheck_alcotest.to_alcotest sampled_matches_old_sim;
      ] );
  ]

module Program = Ripple_isa.Program
module Basic_block = Ripple_isa.Basic_block
module Cache = Ripple_cache.Cache
module Stats = Ripple_cache.Stats
module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream
module Belady = Ripple_cache.Belady
module Lru = Ripple_cache.Lru
module Prefetcher = Ripple_prefetch.Prefetcher
module Nlp = Ripple_prefetch.Nlp
module Fdip = Ripple_prefetch.Fdip
module Int_stream = Ripple_util.Int_stream
module Prng = Ripple_util.Prng

type result = {
  instructions : int;
  hint_instructions : int;
  cycles : float;
  ipc : float;
  demand_misses : int;
  mpki : float;
  l1i : Stats.t;
  served_l2 : int;
  served_l3 : int;
  served_memory : int;
}

module Json = Ripple_util.Json

let result_to_json (r : result) =
  let l1i = r.l1i in
  Json.Obj
    [
      ("instructions", Json.Int r.instructions);
      ("hint_instructions", Json.Int r.hint_instructions);
      ("cycles", Json.Float r.cycles);
      ("ipc", Json.Float r.ipc);
      ("demand_misses", Json.Int r.demand_misses);
      ("mpki", Json.Float r.mpki);
      ("served_l2", Json.Int r.served_l2);
      ("served_l3", Json.Int r.served_l3);
      ("served_memory", Json.Int r.served_memory);
      ( "l1i",
        Json.Obj
          [
            ("demand_accesses", Json.Int l1i.Stats.demand_accesses);
            ("demand_misses", Json.Int l1i.Stats.demand_misses);
            ("demand_misses_cold", Json.Int l1i.Stats.demand_misses_cold);
            ("prefetch_accesses", Json.Int l1i.Stats.prefetch_accesses);
            ("prefetch_fills", Json.Int l1i.Stats.prefetch_fills);
            ("evictions", Json.Int l1i.Stats.evictions);
            ("replacement_decisions", Json.Int l1i.Stats.replacement_decisions);
            ("hinted_fills", Json.Int l1i.Stats.hinted_fills);
            ("invalidate_hits", Json.Int l1i.Stats.invalidate_hits);
            ("invalidate_misses", Json.Int l1i.Stats.invalidate_misses);
            ("demotes", Json.Int l1i.Stats.demotes);
            ("fill_bypasses", Json.Int l1i.Stats.fill_bypasses);
          ] );
    ]

(* A basic-block trace by index: the materialized [int array] the tests
   and small drivers use, or an [Int_stream] so a 100 M-block trace can
   live in an mmap spill file instead of the heap. *)
module Trace = struct
  type t = Blocks of int array | Stream of Int_stream.t

  let of_blocks a = Blocks a
  let of_stream s = Stream s
  let length = function Blocks a -> Array.length a | Stream s -> Int_stream.length s

  (* Loop-bounded callers only: no bounds check on the array case. *)
  let get t i =
    match t with
    | Blocks a -> Array.unsafe_get a i
    | Stream s -> Int_stream.unsafe_get s i

  let to_blocks = function Blocks a -> a | Stream s -> Int_stream.to_array s
  let close = function Blocks _ -> () | Stream s -> Int_stream.close s
end

(* SimPoint-style sampled simulation: K measurement windows chosen
   deterministically from a seed, one per equal segment of the
   steady-state region, each replayed from the warm-up checkpoint after
   an uncounted ramp. *)
module Sampling = struct
  type t = { windows : int; window_blocks : int; warm_blocks : int; seed : int }

  let v ?(warm_blocks = 0) ?(seed = 1) ~windows ~window_blocks () =
    if windows <= 0 then invalid_arg "Sampling.v: windows must be positive";
    if window_blocks <= 0 then invalid_arg "Sampling.v: window_blocks must be positive";
    if warm_blocks < 0 then invalid_arg "Sampling.v: warm_blocks must be non-negative";
    { windows; window_blocks; warm_blocks; seed }

  type report = {
    spans : (int * int) array;
    measured_blocks : int;
    total_blocks : int;
    coverage : float;
  }

  (* Stratified selection: one window per equal segment of [warmup, n),
     offset uniformly within its segment.  When the requested windows
     cover the whole region the answer degenerates to the full region —
     and the sampled run is then exactly the full run. *)
  let select ~warmup ~n t =
    let span = n - warmup in
    if span <= 0 then [||]
    else if t.windows * t.window_blocks >= span then [| (warmup, n) |]
    else begin
      let seg = span / t.windows in
      let w = min t.window_blocks seg in
      let rng = Prng.create ~seed:t.seed in
      Array.init t.windows (fun i ->
          let base = warmup + (i * seg) in
          let slack = seg - w in
          let off = if slack > 0 then Prng.int rng (slack + 1) else 0 in
          (base + off, base + off + w))
    end

  let report_of_spans ~warmup ~n spans =
    let measured = Array.fold_left (fun acc (s, e) -> acc + e - s) 0 spans in
    let total = max 0 (n - warmup) in
    {
      spans;
      measured_blocks = measured;
      total_blocks = total;
      coverage = (if total = 0 then 1.0 else Float.of_int measured /. Float.of_int total);
    }

  let report_to_json r =
    Json.Obj
      [
        ("windows", Json.Int (Array.length r.spans));
        ( "spans",
          Json.List
            (Array.to_list
               (Array.map (fun (s, e) -> Json.List [ Json.Int s; Json.Int e ]) r.spans))
        );
        ("measured_blocks", Json.Int r.measured_blocks);
        ("total_blocks", Json.Int r.total_blocks);
        ("coverage", Json.Float r.coverage);
      ]
end

module Obs = Ripple_obs

(* The simulator's metric vocabulary.  [register_obs] is find-or-create,
   so callers (the pipeline, the experiment runner) may pre-register the
   whole family to fix a snapshot's schema before any event fires. *)
let obs_counter reg name help = Obs.Registry.counter reg ~help name

let register_obs reg =
  let c name help = ignore (obs_counter reg name help) in
  c "ripple_sim_instructions" "retired instructions, hints included";
  c "ripple_sim_hint_instructions" "retired Ripple hint instructions";
  c "ripple_sim_demand_accesses" "L1I demand accesses";
  c "ripple_sim_demand_misses" "L1I demand misses";
  c "ripple_sim_demand_misses_cold" "compulsory L1I demand misses";
  c "ripple_sim_prefetch_fills" "prefetches that missed and filled";
  c "ripple_sim_evictions" "valid L1I lines displaced by fills";
  c "ripple_sim_replacement_decisions" "fills that picked a victim";
  c "ripple_sim_hinted_fills" "fills into ways freed by a Ripple hint";
  c "ripple_sim_invalidate_hits" "invalidation hints that found their line";
  c "ripple_sim_invalidate_misses" "invalidation hints to an absent line";
  c "ripple_sim_demotes" "demote hints executed";
  c "ripple_sim_fill_bypasses" "misses the policy declined to install";
  (* Set-dueling telemetry: zero unless the policy carries a Dueling
     component, but always registered so the metric vocabulary (and the
     pinned docs/metrics.schema) is identical for every policy. *)
  c "ripple_duel_leader_a_misses" "misses in flavour-A leader sets";
  c "ripple_duel_leader_b_misses" "misses in flavour-B leader sets";
  c "ripple_duel_flips" "follower-selection changes of the policy duel";
  ignore
    (Obs.Registry.gauge reg ~help:"final PSEL of the policy's set duel" "ripple_duel_psel");
  ignore (Obs.Registry.series reg ~help:"periodic IPC over virtual time" "ripple_sim_ipc");
  ignore (Obs.Registry.series reg ~help:"periodic MPKI over virtual time" "ripple_sim_mpki")

let observe_result obs (r : result) =
  let reg = Obs.Run.registry obs in
  register_obs reg;
  let add name v = Obs.Metric.add (Obs.Registry.counter reg name) v in
  add "ripple_sim_instructions" r.instructions;
  add "ripple_sim_hint_instructions" r.hint_instructions;
  add "ripple_sim_demand_accesses" r.l1i.Stats.demand_accesses;
  add "ripple_sim_demand_misses" r.l1i.Stats.demand_misses;
  add "ripple_sim_demand_misses_cold" r.l1i.Stats.demand_misses_cold;
  add "ripple_sim_prefetch_fills" r.l1i.Stats.prefetch_fills;
  add "ripple_sim_evictions" r.l1i.Stats.evictions;
  add "ripple_sim_replacement_decisions" r.l1i.Stats.replacement_decisions;
  add "ripple_sim_hinted_fills" r.l1i.Stats.hinted_fills;
  add "ripple_sim_invalidate_hits" r.l1i.Stats.invalidate_hits;
  add "ripple_sim_invalidate_misses" r.l1i.Stats.invalidate_misses;
  add "ripple_sim_demotes" r.l1i.Stats.demotes;
  add "ripple_sim_fill_bypasses" r.l1i.Stats.fill_bypasses

(* Duel telemetry comes off the live policy, not the result record, so
   only the trace-driven paths that own a cache can emit it. *)
let observe_duel obs l1 =
  match Cache.duel l1 with
  | None -> ()
  | Some d ->
    let reg = Obs.Run.registry obs in
    register_obs reg;
    let add name v = Obs.Metric.add (Obs.Registry.counter reg name) v in
    add "ripple_duel_leader_a_misses" (Ripple_cache.Dueling.a_misses d);
    add "ripple_duel_leader_b_misses" (Ripple_cache.Dueling.b_misses d);
    add "ripple_duel_flips" (Ripple_cache.Dueling.flips d);
    Obs.Metric.set
      (Obs.Registry.gauge reg "ripple_duel_psel")
      (Float.of_int (Ripple_cache.Dueling.psel d))

let prefetcher_none _program = Prefetcher.none

let prefetcher_nlp ?(config = Config.default) _program =
  Nlp.create ~degree:config.Config.nlp_degree ()

let prefetcher_fdip ?(config = Config.default) program =
  Fdip.create ~ftq_depth:config.Config.ftq_depth ~program ()

(* Precomputed per-block expansion so the hot loop allocates nothing. *)
let block_lines program =
  Array.map
    (fun b -> Array.of_list (Basic_block.lines b))
    (Program.blocks program)

(* The live front end, shared by the timing run and the stream recorder.
   [step ~at id] fetches block [id] at trace index [at]: it completes the
   prefetches due now, issues the prefetcher's [on_block] requests, then
   makes the block's demand fetches, feeding each one's miss outcome to
   [on_demand].  [access ~at acc] performs one access (prefetch or
   demand) and says whether a demand missed.  [save] checkpoints the
   prefetcher and the in-flight queue; the thunk restores both. *)
let front_end ~(config : Config.t) ~program ~prefetcher
    ~(access : at:int -> Access.packed -> bool) =
  let pf = prefetcher program in
  let lines = block_lines program in
  let blocks = Program.blocks program in
  (* Issued accesses arrive consed (newest first); completing them in
     issue order without the [List.rev] copy means recursing to the tail
     first.  In-flight lists are bounded by the FTQ/issue width, so the
     recursion depth is small. *)
  let rec complete_all ~at = function
    | [] -> ()
    | acc :: rest ->
      complete_all ~at rest;
      ignore (access ~at acc : bool)
  in
  (* Prefetches land [prefetch_latency_blocks] blocks after issue (the
     L2 round trip); slot [at mod slots] holds what completes as block
     [at] is fetched. *)
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

(* The measured counters a run accumulates beside the L1I stats.
   Penalties are integers; accumulating them in an int avoids a
   boxed-float store per miss and converts once at the end.
   (Bit-identical to float accumulation: every partial sum is far below
   2^53.) *)
type tally = {
  mutable instructions : int;  (* retired, hints included *)
  mutable hint_instructions : int;
  mutable miss_cycles : int;
  mutable l2_served : int;
  mutable l3_served : int;
  mutable mem_served : int;
}

let tally () =
  {
    instructions = 0;
    hint_instructions = 0;
    miss_cycles = 0;
    l2_served = 0;
    l3_served = 0;
    mem_served = 0;
  }

let add_tally ~into t =
  into.instructions <- into.instructions + t.instructions;
  into.hint_instructions <- into.hint_instructions + t.hint_instructions;
  into.miss_cycles <- into.miss_cycles + t.miss_cycles;
  into.l2_served <- into.l2_served + t.l2_served;
  into.l3_served <- into.l3_served + t.l3_served;
  into.mem_served <- into.mem_served + t.mem_served

(* A measured demand fill that [served]: counted by its level and
   charged its exposed penalty.  Every driver's misses land here. *)
let charge (config : Config.t) t (served : Hierarchy.served) =
  (match served with
  | Hierarchy.L2 -> t.l2_served <- t.l2_served + 1
  | Hierarchy.L3 -> t.l3_served <- t.l3_served + 1
  | Hierarchy.Memory -> t.mem_served <- t.mem_served + 1);
  t.miss_cycles <- t.miss_cycles + Hierarchy.penalty config served

(* IPC and MPKI count original instructions: hints cost cycles but are
   not work. *)
let original t = t.instructions - t.hint_instructions

(* Cycles over a tally, and their IPC. *)
let timing (config : Config.t) t =
  let original = original t in
  let cycles =
    (config.Config.cpi_base *. Float.of_int original)
    +. (config.Config.hint_cpi *. Float.of_int t.hint_instructions)
    +. (config.Config.miss_exposure *. Float.of_int t.miss_cycles)
  in
  (cycles, if cycles > 0.0 then Float.of_int original /. cycles else 0.0)

let finish config t (l1i : Stats.t) =
  let cycles, ipc = timing config t in
  {
    instructions = t.instructions;
    hint_instructions = t.hint_instructions;
    cycles;
    ipc;
    demand_misses = l1i.Stats.demand_misses;
    mpki = Stats.mpki l1i ~instructions:(original t);
    l1i;
    served_l2 = t.l2_served;
    served_l3 = t.l3_served;
    served_memory = t.mem_served;
  }

(* The timing state both drivers share — L1I, L2/L3 and the measured
   tally — and the two steps that advance it: {!access} per L1I access,
   {!end_block} per retired block.  The live driver feeds them from the
   front end, [replay] from a recorded stream; neither has a copy of the
   other's semantics. *)
type engine = {
  config : Config.t;
  l1 : Cache.t;
  hierarchy : Hierarchy.t;
  blocks : Basic_block.t array;
  on_hint : at:int -> Basic_block.hint -> resident:bool -> unit;
  (* Sampled runs silence [on_hint] on uncounted ramp blocks so callers'
     accuracy counters line up with the measured windows. *)
  mutable hints_observed : bool;
  (* Replaced, not zeroed, at every reset: read it through the engine. *)
  mutable tally : tally;
}

let engine ~(config : Config.t) ~policy ~on_hint program =
  {
    config;
    l1 = Cache.create ~geometry:config.Config.l1i ~policy ();
    hierarchy = Hierarchy.create config;
    blocks = Program.blocks program;
    on_hint;
    hints_observed = true;
    tally = tally ();
  }

(* One L1I access.  A demand miss is charged; a completed prefetch that
   misses fetches its line through L2/L3 uncounted.  True on a demand
   miss. *)
let access e (acc : Access.packed) =
  match Cache.access_packed e.l1 acc with
  | Cache.Hit -> false
  | Cache.Miss ->
    let served = Hierarchy.fetch e.hierarchy (Access.packed_line acc) in
    if Access.packed_is_demand acc then begin
      charge e.config e.tally served;
      true
    end
    else false

(* Block [at] (id [id]) retires: its hints run in order, after all of
   its own accesses and before any access of block [at + 1]. *)
let end_block e ~at id =
  let b = e.blocks.(id) in
  let t = e.tally in
  let hints = b.Basic_block.hints in
  for i = 0 to Array.length hints - 1 do
    let hint = hints.(i) in
    let line = Basic_block.hint_line hint in
    if e.hints_observed then e.on_hint ~at hint ~resident:(Cache.contains e.l1 line);
    (match hint with
    | Basic_block.Invalidate line -> Cache.invalidate e.l1 line
    | Basic_block.Demote line -> Cache.demote e.l1 line);
    t.hint_instructions <- t.hint_instructions + 1
  done;
  t.instructions <- t.instructions + Basic_block.total_instrs b

let reset_counters e =
  Stats.reset (Cache.stats e.l1);
  e.tally <- tally ()

(* Periodic IPC/MPKI samples in *virtual* time (the trace index), so the
   series is a pure function of the run — identical at any pool size.
   At most ~16 samples per run; the per-block cost without a sampler is
   one match. *)
let sampler e ~obs ~n =
  match obs with
  | None -> None
  | Some obs ->
    let reg = Obs.Run.registry obs in
    register_obs reg;
    let ipc_series = Obs.Registry.series reg "ripple_sim_ipc" in
    let mpki_series = Obs.Registry.series reg "ripple_sim_mpki" in
    let every = max 1 (n / 16) in
    Some
      (fun at ->
        if (at + 1) mod every = 0 then begin
          let original = original e.tally in
          if original > 0 then begin
            Obs.Metric.sample ipc_series ~at (snd (timing e.config e.tally));
            Obs.Metric.sample mpki_series ~at
              (Stats.mpki (Cache.stats e.l1) ~instructions:original)
          end
        end)

(* [e]'s run ends: its result from a tally and L1I stats, observed. *)
let conclude ?obs e t l1i =
  let result = finish e.config t l1i in
  (match obs with
  | Some o ->
    observe_result o result;
    observe_duel o e.l1
  | None -> ());
  result

(* Block [at]'s end in an unsampled run: its hints and instructions, the
   IPC/MPKI sample and, once block [warmup - 1] has ended, the warm-up
   reset — so the counters restart before block [warmup]'s first
   access.  Both drivers retire blocks through here. *)
let retire e ~sampler ~warmup ~n ~at id =
  end_block e ~at id;
  (match sampler with Some f -> f at | None -> ());
  if at + 1 = warmup && warmup < n then reset_counters e

(* The unsampled run over a recorded stream: [pos i] is entry [i]'s
   trace index. *)
let replay ~config ~warmup ?obs ~on_hint ~program ~(trace : Trace.t) ~policy ~stream ~pos () =
  let n = Trace.length trace in
  let e = engine ~config ~policy ~on_hint program in
  let sampler = sampler e ~obs ~n in
  (* Blocks below [!next] have retired; an entry tagged [at] first
     retires every block before [at], so each block's end falls after
     its own entries and before the next block's. *)
  let next = ref 0 in
  let retire_before at =
    while !next < at do
      let b = !next in
      retire e ~sampler ~warmup ~n ~at:b (Trace.get trace b);
      next := b + 1
    done
  in
  Access_stream.iteri
    (fun i acc ->
      let at = pos i in
      if at >= n then
        invalid_arg "Simulator.run_trace: recorded position past the end of the trace";
      retire_before at;
      ignore (access e acc : bool))
    stream;
  retire_before n;
  conclude ?obs e e.tally (Cache.stats e.l1)

(* The run with the live front end: prefetcher, predictors and the
   in-flight queue beside the caches. *)
let run_front_end ~config ~warmup ?obs ~on_hint ?sampling ~program ~(trace : Trace.t) ~policy
    ~prefetcher () =
  let n = Trace.length trace in
  let e = engine ~config ~policy ~on_hint program in
  let fetch, save_front_end =
    front_end ~config ~program ~prefetcher ~access:(fun ~at:_ acc -> access e acc)
  in
  match sampling with
  | None ->
    (* Steady state: warm the caches and predictors, then zero the
       counters at the warm-up boundary. *)
    let sampler = sampler e ~obs ~n in
    for at = 0 to n - 1 do
      let id = Trace.get trace at in
      fetch ~at id;
      retire e ~sampler ~warmup ~n ~at id
    done;
    (conclude ?obs e e.tally (Cache.stats e.l1), None)
  | Some (sampling : Sampling.t) ->
    let step at =
      let id = Trace.get trace at in
      fetch ~at id;
      end_block e ~at id
    in
    let spans = Sampling.select ~warmup ~n sampling in
    (* Warm phase, then checkpoint: cache + hierarchy + prefetcher +
       in-flight prefetches, restored before every window. *)
    for at = 0 to min warmup n - 1 do
      step at
    done;
    reset_counters e;
    let restore =
      let restore_l1 = Cache.save e.l1 in
      let restore_hierarchy = Hierarchy.save e.hierarchy in
      let restore_front_end = save_front_end () in
      fun () ->
        restore_l1 ();
        restore_hierarchy ();
        restore_front_end ()
    in
    let total_stats = Stats.create () and total = tally () in
    Array.iter
      (fun (w_start, w_end) ->
        restore ();
        (* Uncounted ramp from the checkpoint to the window, detraining
           the checkpoint bias before measurement starts. *)
        e.hints_observed <- false;
        for at = max warmup (w_start - sampling.Sampling.warm_blocks) to w_start - 1 do
          step at
        done;
        e.hints_observed <- true;
        (* Splice the window's deltas: a fresh tally, the L1I stats
           against a snapshot. *)
        let snap = Stats.copy (Cache.stats e.l1) in
        e.tally <- tally ();
        for at = w_start to w_end - 1 do
          step at
        done;
        add_tally ~into:total e.tally;
        Stats.accumulate_delta ~into:total_stats ~before:snap ~after:(Cache.stats e.l1))
      spans;
    (conclude ?obs e total total_stats, Some (Sampling.report_of_spans ~warmup ~n spans))

let no_hint_observer ~at:_ _ ~resident:_ = ()

let run_trace ?(config = Config.default) ?(warmup = 0) ?obs ?(on_hint = no_hint_observer)
    ?sampling ?recorded ~program ~trace ~policy ~prefetcher () =
  match (sampling, recorded) with
  | None, Some recorded ->
    (* The only place that picks the recording over the front end: a
       sampled run rewinds the prefetcher at every window, so it cannot
       read a stream recorded front to back. *)
    let stream, pos = recorded () in
    (replay ~config ~warmup ?obs ~on_hint ~program ~trace ~policy ~stream ~pos (), None)
  | _ -> run_front_end ~config ~warmup ?obs ~on_hint ?sampling ~program ~trace ~policy ~prefetcher ()

let run ?config ?warmup ?obs ?on_hint ~program ~trace ~policy ~prefetcher () =
  fst
    (run_trace ?config ?warmup ?obs ?on_hint ~program ~trace:(Trace.Blocks trace) ~policy
       ~prefetcher ())

(* A tally holding the instructions of [trace] from [warmup] on. *)
let instruction_tally ~program ~trace ~warmup =
  let per_block = Array.map Basic_block.total_instrs (Program.blocks program) in
  let t = tally () in
  for i = warmup to Array.length trace - 1 do
    t.instructions <- t.instructions + per_block.(trace.(i))
  done;
  t

let ideal_cache ?(config = Config.default) ?(warmup = 0) ~program ~trace () =
  finish config (instruction_tally ~program ~trace ~warmup) (Stats.create ())

let record_stream_indexed_trace ?(config = Config.default) ?backing ~program
    ~(trace : Trace.t) ~prefetcher () =
  (* The LRU model only answers the prefetcher's [~missed]. *)
  let l1 = Cache.create ~geometry:config.Config.l1i ~policy:Lru.make () in
  let builder = Access_stream.Builder.create ?backing () in
  let pos = Int_stream.Builder.create ?backing () in
  let access ~at (acc : Access.packed) =
    Access_stream.Builder.add builder acc;
    Int_stream.Builder.add pos at;
    Cache.access_packed l1 acc = Cache.Miss
  in
  let fetch, _ = front_end ~config ~program ~prefetcher ~access in
  for at = 0 to Trace.length trace - 1 do
    fetch ~at (Trace.get trace at)
  done;
  (Access_stream.Builder.finish builder, Int_stream.Builder.finish pos)

let stream_count_from ~stream_pos ~warmup =
  (* First stream index belonging to the measured region. *)
  let n = Array.length stream_pos in
  let rec find i = if i >= n then n else if stream_pos.(i) >= warmup then i else find (i + 1) in
  if warmup = 0 then 0 else find 0

(* Belady's counters as L1I stats: every ideal eviction is a
   replacement decision. *)
let stats_of_belady (res : Belady.result) =
  let stats = Stats.create () in
  stats.Stats.demand_accesses <- res.Belady.demand_accesses;
  stats.Stats.demand_misses <- res.Belady.demand_misses;
  stats.Stats.demand_misses_cold <- res.Belady.demand_misses_cold;
  stats.Stats.prefetch_accesses <- res.Belady.prefetch_accesses;
  stats.Stats.prefetch_fills <- res.Belady.prefetch_fills;
  stats.Stats.evictions <- res.Belady.n_evictions;
  stats.Stats.replacement_decisions <- res.Belady.n_evictions;
  stats

let oracle ?(config = Config.default) ?(warmup = 0) ?stream ?replay ~mode ~program ~trace
    ~prefetcher () =
  let stream, stream_pos =
    match stream with
    | Some s -> s
    | None ->
      let stream, pos =
        record_stream_indexed_trace ~config ~program ~trace:(Trace.Blocks trace) ~prefetcher ()
      in
      (stream, Int_stream.to_array pos)
  in
  let count_from = stream_count_from ~stream_pos ~warmup in
  let t = instruction_tally ~program ~trace ~warmup in
  (* Every ideal fill goes through the L2/L3 hierarchy in stream order;
     the measured demand fills are charged. *)
  let hierarchy = Hierarchy.create config in
  let on_fill ~index (acc : Access.packed) =
    let served = Hierarchy.fetch hierarchy (Access.packed_line acc) in
    if Access.packed_is_demand acc && index >= count_from then charge config t served
  in
  let res =
    match replay with
    | Some (res : Belady.result) ->
      (* A sharded (or otherwise precomputed) Belady replay: its recorded
         fill sequence stands in for the inline pass's callbacks. *)
      Array.iter (fun index -> on_fill ~index (Access_stream.get stream index)) res.Belady.fills;
      res
    | None ->
      (* The timing replay only needs counters and the fill callback —
         not the boxed eviction records, which would otherwise be the
         last O(n)-in-the-heap structure on the paper-scale oracle
         path. *)
      Belady.simulate ~record_evictions:false ~on_fill ~count_from config.Config.l1i ~mode
        stream
  in
  finish config t (stats_of_belady res)

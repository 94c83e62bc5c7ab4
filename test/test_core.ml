(* Tests for ripple.core: eviction windows, cue-block analysis (the
   Fig. 5 scenario), injection, and the end-to-end pipeline. *)

module Basic_block = Ripple_isa.Basic_block
module Program = Ripple_isa.Program
module Builder = Ripple_isa.Builder
module Access = Ripple_cache.Access
module Access_stream = Ripple_cache.Access_stream
module Belady = Ripple_cache.Belady
module Cache = Ripple_cache
module Simulator = Ripple_cpu.Simulator
module Core = Ripple_core
module Eviction_window = Ripple_core.Eviction_window
module Cue_block = Ripple_core.Cue_block
module Injector = Ripple_core.Injector
module Pipeline = Ripple_core.Pipeline
module W = Ripple_workloads
module Prng = Ripple_util.Prng

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf = check (Alcotest.float 1e-9)

(* -------------------------- Eviction_window ------------------------- *)

let test_window_of_evictions () =
  let evictions =
    [|
      { Belady.at = 9; line = 100; set = 1; last_use = 4; next = Belady.Next_demand };
      { Belady.at = 20; line = 200; set = 2; last_use = 15; next = Belady.Next_prefetch };
    |]
  in
  let windows = Eviction_window.of_evictions evictions in
  checki "two windows" 2 (Array.length windows);
  checki "victim" 100 windows.(0).Eviction_window.victim;
  checki "start" 4 windows.(0).Eviction_window.start;
  checki "stop" 9 windows.(0).Eviction_window.stop;
  let filtered = Eviction_window.of_evictions ~demand_covered_only:true evictions in
  checki "prefetch-covered filtered" 1 (Array.length filtered);
  checki "survivor" 100 filtered.(0).Eviction_window.victim

let test_window_trace_coords () =
  let windows = [| { Eviction_window.victim = 7; start = 2; stop = 5 } |] in
  let stream_pos = [| 0; 0; 1; 1; 2; 2 |] in
  let mapped = Eviction_window.to_trace_coords windows ~stream_pos in
  checki "start mapped" 1 mapped.(0).Eviction_window.start;
  checki "stop mapped" 2 mapped.(0).Eviction_window.stop

let test_window_count_for () =
  let windows =
    [|
      { Eviction_window.victim = 1; start = 0; stop = 1 };
      { Eviction_window.victim = 1; start = 5; stop = 9 };
      { Eviction_window.victim = 2; start = 2; stop = 3 };
    |]
  in
  checki "two for line 1" 2 (Eviction_window.count_for windows ~line:1);
  checki "zero for line 9" 0 (Eviction_window.count_for windows ~line:9)

let test_window_index_membership () =
  let windows =
    [|
      { Eviction_window.victim = 1; start = 10; stop = 20 };
      { Eviction_window.victim = 1; start = 30; stop = 40 };
      { Eviction_window.victim = 2; start = 15; stop = 16 };
    |]
  in
  let index = Eviction_window.Index.create windows in
  (* Queries must be monotone per line. *)
  checkb "before first window" false (Eviction_window.Index.mem index ~line:1 ~at:5);
  checkb "start is inclusive" true (Eviction_window.Index.mem index ~line:1 ~at:10);
  checkb "inside" true (Eviction_window.Index.mem index ~line:1 ~at:15);
  checkb "stop inclusive" true (Eviction_window.Index.mem index ~line:1 ~at:20);
  checkb "gap" false (Eviction_window.Index.mem index ~line:1 ~at:25);
  checkb "second window" true (Eviction_window.Index.mem index ~line:1 ~at:35);
  checkb "after all" false (Eviction_window.Index.mem index ~line:1 ~at:50);
  checkb "other line" true (Eviction_window.Index.mem index ~line:2 ~at:16);
  checkb "unknown line" false (Eviction_window.Index.mem index ~line:99 ~at:16)

(* ----------------------------- Cue_block ---------------------------- *)

(* A hand-built Fig. 5-style scenario (see the paper's example): victim
   line A is evicted twice; candidate cue blocks B, C, D have execution
   counts 4, 2, 6, and window memberships 2, 2, 2, giving conditional
   probabilities 0.5, 1.0 and 1/3.  C must be selected for both
   windows. *)
let fig5_scenario () =
  let d ~line ~block = Access.demand ~line ~block in
  let stream =
    [|
      d ~line:50 ~block:9 (* 0 *);
      d ~line:100 ~block:5 (* 1: A's last use *);
      d ~line:60 ~block:1 (* 2: B *);
      d ~line:61 ~block:2 (* 3: C *);
      d ~line:62 ~block:3 (* 4: D, eviction trigger *);
      d ~line:60 ~block:1 (* 5: B outside windows *);
      d ~line:62 ~block:3 (* 6 *);
      d ~line:62 ~block:3 (* 7 *);
      d ~line:100 ~block:5 (* 8: A's last use again *);
      d ~line:60 ~block:1 (* 9: B *);
      d ~line:61 ~block:2 (* 10: C *);
      d ~line:62 ~block:3 (* 11: D, eviction trigger *);
      d ~line:60 ~block:1 (* 12 *);
      d ~line:62 ~block:3 (* 13 *);
      d ~line:62 ~block:3 (* 14 *);
    |]
  in
  let windows =
    [|
      { Eviction_window.victim = 100; start = 1; stop = 4 };
      { Eviction_window.victim = 100; start = 8; stop = 11 };
    |]
  in
  let exec_counts = Array.make 10 0 in
  Array.iter (fun (a : Access.t) -> exec_counts.(a.Access.block) <- exec_counts.(a.Access.block) + 1) stream;
  (Ripple_cache.Access_stream.of_array stream, windows, exec_counts)

let test_cue_selects_best_probability () =
  let stream, windows, exec_counts = fig5_scenario () in
  match Cue_block.analyze ~min_support:2 ~stream ~windows ~exec_counts ~threshold:0.6 () with
  | [ d ] ->
    checki "cue is C" 2 d.Cue_block.cue_block;
    checki "victim is A" 100 d.Cue_block.victim;
    checkf "probability 1.0" 1.0 d.Cue_block.probability;
    checki "covers both windows" 2 d.Cue_block.windows
  | ds -> Alcotest.failf "expected exactly one decision, got %d" (List.length ds)

let test_cue_threshold_filters () =
  let stream, windows, exec_counts = fig5_scenario () in
  checki "nothing above probability 1" 0
    (List.length (Cue_block.analyze ~min_support:1 ~stream ~windows ~exec_counts ~threshold:1.01 ()))

let test_cue_min_support_filters () =
  let stream, windows, exec_counts = fig5_scenario () in
  checki "support 3 kills a 2-window pair" 0
    (List.length (Cue_block.analyze ~min_support:3 ~stream ~windows ~exec_counts ~threshold:0.5 ()))

let test_cue_conditional_probability_values () =
  (* Drop the winner C from consideration by raising the threshold to
     exclude C's rivals but catch B at exactly 0.5. *)
  let stream, windows, exec_counts = fig5_scenario () in
  match Cue_block.analyze ~min_support:2 ~stream ~windows ~exec_counts ~threshold:0.5 () with
  | [ d ] -> checkf "C still the per-window best" 1.0 d.Cue_block.probability
  | _ -> Alcotest.fail "one decision expected"

let test_cue_empty_inputs () =
  checki "no windows, no decisions" 0
    (List.length
       (Cue_block.analyze ~stream:Ripple_cache.Access_stream.empty ~windows:[||] ~exec_counts:[| 0 |] ~threshold:0.5 ()))

(* -------------------- Cue selection against its history -------------------- *)

(* The two-pass selector that preceded victim grouping, reproduced
   verbatim (modulo record qualification): every window walked twice,
   a [seen] table cleared per window and (victim, block) window counts
   in a hash table.  The grouped selector must return the same decision
   list, in the same order, and the same drop record. *)
module Two_pass = struct
  let walk_window ~scan_limit ~step_limit (stream : Access_stream.t) (w : Eviction_window.t)
      ~seen f =
    Hashtbl.reset seen;
    let visit (acc : Access.packed) =
      if Access.packed_is_demand acc then begin
        let block = Access.packed_block acc in
        if not (Hashtbl.mem seen block) then begin
          Hashtbl.add seen block ();
          f block
        end
      end
    in
    let half_scan = max 1 (scan_limit / 2) and half_step = max 1 (step_limit / 2) in
    let start = w.Eviction_window.start and stop = w.Eviction_window.stop in
    let steps = ref 0 in
    let i = ref (start + 1) in
    while !i <= stop && !steps < half_step && Hashtbl.length seen < half_scan do
      visit (Access_stream.get stream !i);
      incr steps;
      incr i
    done;
    let fwd_end = !i in
    steps := 0;
    let j = ref stop in
    while !j >= fwd_end && !steps < half_step && Hashtbl.length seen < scan_limit do
      visit (Access_stream.get stream !j);
      incr steps;
      decr j
    done

  let pack ~victim ~block = (victim lsl 22) lor block

  let analyze_report ?(scan_limit = 48) ?(step_limit = 4096) ?(min_support = 3) ~stream
      ~windows ~exec_counts ~threshold () =
    let window_counts = Hashtbl.create (4 * Array.length windows) in
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun (w : Eviction_window.t) ->
        walk_window ~scan_limit ~step_limit stream w ~seen (fun block ->
            let key = pack ~victim:w.Eviction_window.victim ~block in
            match Hashtbl.find_opt window_counts key with
            | Some n -> Hashtbl.replace window_counts key (n + 1)
            | None -> Hashtbl.add window_counts key 1))
      windows;
    let chosen = Hashtbl.create 4096 in
    let no_candidate = ref 0 and below_support = ref 0 and below_threshold = ref 0 in
    let selected = ref 0 in
    Array.iter
      (fun (w : Eviction_window.t) ->
        let victim = w.Eviction_window.victim in
        let best_block = ref (-1) and best_p = ref (-1.0) in
        walk_window ~scan_limit ~step_limit stream w ~seen (fun block ->
            let execs = exec_counts.(block) in
            if execs > 0 then begin
              let count = try Hashtbl.find window_counts (pack ~victim ~block) with Not_found -> 0 in
              let p = Float.of_int count /. Float.of_int execs in
              if p > !best_p then begin
                best_p := p;
                best_block := block
              end
            end);
        if !best_block < 0 then incr no_candidate
        else if
          (try Hashtbl.find window_counts (pack ~victim ~block:!best_block) with Not_found -> 0)
          < min_support
        then incr below_support
        else if !best_p < threshold then incr below_threshold
        else begin
          incr selected;
          let key = pack ~victim ~block:!best_block in
          match Hashtbl.find_opt chosen key with
          | Some (block, victim, p, n) -> Hashtbl.replace chosen key (block, victim, p, n + 1)
          | None -> Hashtbl.add chosen key (!best_block, victim, !best_p, 1)
        end)
      windows;
    let decisions =
      Hashtbl.fold
        (fun _ (cue_block, victim, probability, windows) acc ->
          { Cue_block.cue_block; victim; probability; windows } :: acc)
        chosen []
    in
    ( decisions,
      {
        Cue_block.windows_total = Array.length windows;
        no_candidate = !no_candidate;
        below_support = !below_support;
        below_threshold = !below_threshold;
        selected = !selected;
      } )
end

(* One generated cue-selection input.  The stream is a run of segments,
   each drawing its demand blocks from the whole block range or from a
   narrow one (so a long window can outlast the step bound without
   reaching the scan bound) and mixing in prefetch entries.  Execution
   counts are the stream's, with some blocks forced to zero and some
   raised, so small-ratio probability ties are common.  A handful of
   victims share the windows, so one victim's windows sit among
   others'; about one window in ten is longer than the step bound.
   About a third of the cases instead spread thousands of short windows
   over many victims and blocks with small execution counts: hundreds
   of distinct decisions, enough to share buckets of the decision
   table, whose fold order then depends on the order it was filled in.
   Seeds divisible by 11 give an empty stream and no windows, seeds
   divisible by 7 windows over a stream but none in the array. *)
let gen_cue_case seed =
  let rng = Prng.create ~seed in
  let pick a = a.(Prng.int rng (Array.length a)) in
  let scan_limit = pick [| 1; 2; 5; 8; 48; 200 |] in
  let min_support = pick [| 0; 1; 2; 3; 4 |] in
  let threshold = pick [| 0.0; 1.0 /. 3.0; 0.5; 0.6; 1.0; 1.5 |] in
  let many = Prng.chance rng 0.35 in
  let n_blocks = 4 + Prng.int rng (if many then 400 else 60) in
  if seed mod 11 = 0 then
    (Access_stream.empty, [||], Array.make n_blocks 0, scan_limit, min_support, threshold)
  else begin
    let len = if Prng.chance rng 0.5 then 9_000 + Prng.int rng 3_000 else 300 + Prng.int rng 1_500 in
    let stream = Array.make len (Access.demand ~line:0 ~block:0) in
    let i = ref 0 in
    while !i < len do
      let seg = 1 + Prng.int rng (if Prng.chance rng 0.2 then 3_000 else 100) in
      let base = Prng.int rng n_blocks in
      let width = if Prng.bool rng then n_blocks else 1 + Prng.int rng 3 in
      let prefetch_rate = pick [| 0.0; 0.2; 0.6 |] in
      for k = !i to min len (!i + seg) - 1 do
        let block = (base + Prng.int rng width) mod n_blocks and line = Prng.int rng 200 in
        stream.(k) <-
          (if Prng.chance rng prefetch_rate then Access.prefetch ~line ~block
           else Access.demand ~line ~block)
      done;
      i := !i + seg
    done;
    let exec_counts = Array.make n_blocks 0 in
    if many then Array.iteri (fun b _ -> exec_counts.(b) <- Prng.int rng 5) exec_counts
    else begin
      Array.iter
        (fun (a : Access.t) ->
          if Access.is_demand a then
            exec_counts.(a.Access.block) <- exec_counts.(a.Access.block) + 1)
        stream;
      Array.iteri
        (fun b n ->
          if Prng.chance rng 0.15 then exec_counts.(b) <- 0
          else if Prng.chance rng 0.2 then exec_counts.(b) <- n + Prng.int rng 3)
        exec_counts
    end;
    let n_victims = 1 + Prng.int rng (if many then 64 else 8) in
    let n_windows =
      if seed mod 7 = 0 then 0 else if many then 500 + Prng.int rng 1_500 else Prng.int rng 200
    in
    let windows =
      Array.init n_windows (fun _ ->
          let span =
            if Prng.chance rng 0.1 && len > 4_200 then 4_097 + Prng.int rng (len - 4_097)
            else Prng.int rng (min 80 len)
          in
          let start = Prng.int rng (len - span) in
          { Eviction_window.victim = 1_000 + Prng.int rng n_victims; start; stop = start + span })
    in
    (Access_stream.of_array stream, windows, exec_counts, scan_limit, min_support, threshold)
  end

let cue_select_matches_two_pass =
  QCheck.Test.make ~count:60
    ~name:"grouped cue selection equals the two-pass selector (decisions in order, drops)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let stream, windows, exec_counts, scan_limit, min_support, threshold = gen_cue_case seed in
      Cue_block.analyze_report ~scan_limit ~min_support ~stream ~windows ~exec_counts ~threshold ()
      = Two_pass.analyze_report ~scan_limit ~min_support ~stream ~windows ~exec_counts ~threshold ())

(* ------------------------------ Injector ---------------------------- *)

let program_for_injection () =
  let b = Builder.create () in
  let blocks = Array.init 4 (fun _ -> Builder.block b ~bytes:32 ~term:Basic_block.Halt ()) in
  Builder.set_term b blocks.(0) (Basic_block.Fallthrough blocks.(1));
  Builder.set_term b blocks.(1) (Basic_block.Fallthrough blocks.(2));
  Builder.set_term b blocks.(2) (Basic_block.Fallthrough blocks.(3));
  (Builder.finish b ~entry:blocks.(0), blocks)

let decision ~cue ~victim ~p = { Cue_block.cue_block = cue; victim; probability = p; windows = 2 }

let test_injector_basic () =
  let program, blocks = program_for_injection () in
  let decisions = [ decision ~cue:blocks.(1) ~victim:77 ~p:0.9 ] in
  let instrumented, _, stats = Injector.inject ~program ~decisions () in
  checki "one injected" 1 stats.Injector.injected;
  checki "one block touched" 1 stats.Injector.blocks_touched;
  let hints = (Program.block instrumented blocks.(1)).Basic_block.hints in
  checki "hint present" 1 (Array.length hints);
  checkb "invalidate hint" true (hints.(0) = Basic_block.Invalidate 77)

let test_injector_demote_mode () =
  let program, blocks = program_for_injection () in
  let decisions = [ decision ~cue:blocks.(0) ~victim:5 ~p:0.9 ] in
  let instrumented, _, _ = Injector.inject ~mode:Injector.Demote ~program ~decisions () in
  let hints = (Program.block instrumented blocks.(0)).Basic_block.hints in
  checkb "demote hint" true (hints.(0) = Basic_block.Demote 5)

let test_injector_cap () =
  let program, blocks = program_for_injection () in
  let decisions =
    List.init 5 (fun i -> decision ~cue:blocks.(2) ~victim:(100 + i) ~p:(0.5 +. (0.1 *. Float.of_int i)))
  in
  let instrumented, _, stats = Injector.inject ~max_hints_per_block:2 ~program ~decisions () in
  checki "capped to 2" 2 stats.Injector.injected;
  checki "dropped 3" 3 stats.Injector.skipped_cap;
  let hints = (Program.block instrumented blocks.(2)).Basic_block.hints in
  checki "two hints" 2 (Array.length hints);
  (* Highest-probability victims (104, 103) kept. *)
  let lines = Array.to_list (Array.map Basic_block.hint_line hints) in
  checkb "best kept" true (List.mem 104 lines && List.mem 103 lines)

let test_injector_skips_jit () =
  let b = Builder.create () in
  let plain = Builder.block b ~bytes:32 ~term:Basic_block.Halt () in
  let jit = Builder.block b ~jit:true ~bytes:32 ~term:Basic_block.Halt () in
  Builder.set_term b plain (Basic_block.Fallthrough jit);
  let program = Builder.finish b ~entry:plain in
  let decisions = [ decision ~cue:jit ~victim:9 ~p:0.9; decision ~cue:plain ~victim:8 ~p:0.9 ] in
  let _, _, stats = Injector.inject ~program ~decisions () in
  checki "jit decision skipped" 1 stats.Injector.skipped_jit;
  checki "plain injected" 1 stats.Injector.injected;
  let _, _, stats_keep = Injector.inject ~skip_jit:false ~program ~decisions () in
  checki "jit kept when allowed" 2 stats_keep.Injector.injected

(* ------------------------------ Pipeline ---------------------------- *)

(* A small, deterministic, thrashing workload: the cleanest end-to-end
   demonstration that Ripple reduces misses. *)
let mini_verilator =
  {
    W.Apps.verilator with
    W.App_model.name = "mini-verilator";
    seed = 17;
    n_functions = 90;
    hot_functions = 30;
    handler_blocks = 60;
    blocks_per_function = 12;
  }

let mini_setup () =
  let w = W.Cfg_gen.generate mini_verilator in
  let program = w.W.Cfg_gen.program in
  let train = W.Executor.run w ~input:W.Executor.train ~n_instrs:400_000 in
  let eval = W.Executor.run w ~input:W.Executor.eval_inputs.(0) ~n_instrs:400_000 in
  (program, train, eval)

(* Shared shape for the pipeline tests: one [Pipeline.run] call under
   [No_prefetch], optionally with an evaluation request attached. *)
let run_mini ?(options = Pipeline.Options.default) ?eval program train =
  let eval =
    Option.map
      (fun (warmup, trace, policy) -> Pipeline.Eval.v ~warmup ~trace ~policy ())
      eval
  in
  Pipeline.run
    { options with prefetch = Pipeline.No_prefetch; eval }
    ~source:program (Pipeline.Trace train)

let test_pipeline_instrument_produces_hints () =
  let program, train, _ = mini_setup () in
  let oc = run_mini program train in
  let instrumented = oc.Pipeline.program in
  let analysis = oc.Pipeline.analysis in
  checkb "windows found" true (analysis.Pipeline.n_windows > 0);
  checkb "decisions made" true (analysis.Pipeline.n_decisions > 0);
  checkb "hints injected" true (Program.static_hints instrumented > 0);
  checki "injected = decisions - skips" analysis.Pipeline.injection.Injector.injected
    (Program.static_hints instrumented)

let test_pipeline_ripple_reduces_misses () =
  let program, train, eval = mini_setup () in
  let warmup = Array.length eval / 2 in
  let lru =
    Simulator.run ~warmup ~program ~trace:eval ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let oc = run_mini program train ~eval:(warmup, eval, Cache.Lru.make) in
  let ev = Option.get oc.Pipeline.evaluation in
  checkb "fewer misses than LRU" true
    (ev.Pipeline.result.Simulator.demand_misses < lru.Simulator.demand_misses);
  checkb "coverage positive" true (ev.Pipeline.coverage > 0.2);
  checkb "accuracy high on deterministic code" true (ev.Pipeline.accuracy > 0.8);
  checkb "hints executed" true (ev.Pipeline.hint_execs > 0);
  checkb "static overhead sane" true
    (ev.Pipeline.static_overhead > 0.0 && ev.Pipeline.static_overhead < 0.15);
  checkb "dynamic overhead sane" true
    (ev.Pipeline.dynamic_overhead > 0.0 && ev.Pipeline.dynamic_overhead < 0.15)

let test_pipeline_ripple_random_works () =
  let program, train, eval = mini_setup () in
  let warmup = Array.length eval / 2 in
  let random_base =
    Simulator.run ~warmup ~program ~trace:eval ~policy:(Cache.Random_policy.make ~seed:8)
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let oc = run_mini program train ~eval:(warmup, eval, Cache.Random_policy.make ~seed:8) in
  let ev = Option.get oc.Pipeline.evaluation in
  checkb "ripple-random beats plain random" true
    (ev.Pipeline.result.Simulator.demand_misses < random_base.Simulator.demand_misses)

let test_pipeline_demote_mode_runs () =
  let program, train, eval = mini_setup () in
  let warmup = Array.length eval / 2 in
  let lru =
    Simulator.run ~warmup ~program ~trace:eval ~policy:Cache.Lru.make
      ~prefetcher:Simulator.prefetcher_none ()
  in
  let oc =
    run_mini program train
      ~options:{ Pipeline.Options.default with mode = Injector.Demote }
      ~eval:(warmup, eval, Cache.Lru.make)
  in
  let ev = Option.get oc.Pipeline.evaluation in
  checkb "demote also reduces misses" true
    (ev.Pipeline.result.Simulator.demand_misses < lru.Simulator.demand_misses)

let test_pipeline_threshold_monotone_decisions () =
  let program, train, _ = mini_setup () in
  let count threshold =
    let oc = run_mini program train ~options:{ Pipeline.Options.default with threshold } in
    oc.Pipeline.analysis.Pipeline.n_decisions
  in
  checkb "higher threshold, fewer decisions" true (count 0.9 <= count 0.3)

let test_pipeline_search_threshold () =
  let program, train, eval = mini_setup () in
  let warmup = Array.length eval / 2 in
  let oc =
    run_mini program train
      ~options:{ Pipeline.Options.default with search = [ 0.45; 0.65 ] }
      ~eval:(warmup, eval, Cache.Lru.make)
  in
  let threshold = oc.Pipeline.analysis.Pipeline.threshold in
  let ev = Option.get oc.Pipeline.evaluation in
  checkb "picked a candidate" true (threshold = 0.45 || threshold = 0.65);
  checkb "evaluation attached" true (ev.Pipeline.hint_execs >= 0)

let test_pipeline_prefetch_helpers () =
  check Alcotest.string "name none" "none" (Pipeline.prefetch_name Pipeline.No_prefetch);
  check Alcotest.string "name nlp" "nlp" (Pipeline.prefetch_name Pipeline.Nlp);
  check Alcotest.string "name fdip" "fdip" (Pipeline.prefetch_name Pipeline.Fdip);
  checkb "mode none" true (Pipeline.belady_mode_of Pipeline.No_prefetch = Belady.Min);
  checkb "mode fdip" true (Pipeline.belady_mode_of Pipeline.Fdip = Belady.Demand_min)

let suites =
  [
    ( "core.eviction_window",
      [
        Alcotest.test_case "of_evictions" `Quick test_window_of_evictions;
        Alcotest.test_case "trace coords" `Quick test_window_trace_coords;
        Alcotest.test_case "count_for" `Quick test_window_count_for;
        Alcotest.test_case "index membership" `Quick test_window_index_membership;
      ] );
    ( "core.cue_block",
      [
        Alcotest.test_case "selects best probability" `Quick test_cue_selects_best_probability;
        Alcotest.test_case "threshold filters" `Quick test_cue_threshold_filters;
        Alcotest.test_case "min support filters" `Quick test_cue_min_support_filters;
        Alcotest.test_case "probability values" `Quick test_cue_conditional_probability_values;
        Alcotest.test_case "empty inputs" `Quick test_cue_empty_inputs;
        QCheck_alcotest.to_alcotest cue_select_matches_two_pass;
      ] );
    ( "core.injector",
      [
        Alcotest.test_case "basic" `Quick test_injector_basic;
        Alcotest.test_case "demote mode" `Quick test_injector_demote_mode;
        Alcotest.test_case "cap" `Quick test_injector_cap;
        Alcotest.test_case "skips jit" `Quick test_injector_skips_jit;
      ] );
    ( "core.pipeline",
      [
        Alcotest.test_case "instrument produces hints" `Quick test_pipeline_instrument_produces_hints;
        Alcotest.test_case "ripple reduces misses" `Quick test_pipeline_ripple_reduces_misses;
        Alcotest.test_case "ripple-random works" `Quick test_pipeline_ripple_random_works;
        Alcotest.test_case "demote mode runs" `Quick test_pipeline_demote_mode_runs;
        Alcotest.test_case "threshold monotone" `Quick test_pipeline_threshold_monotone_decisions;
        Alcotest.test_case "search threshold" `Quick test_pipeline_search_threshold;
        Alcotest.test_case "helpers" `Quick test_pipeline_prefetch_helpers;
      ] );
  ]

(** Trace-driven performance simulation.

    Replays a decoded basic-block trace through a prefetcher, the L1
    I-cache under a chosen replacement policy, and the L2/L3 hierarchy,
    charging [cpi_base] per retired instruction plus the exposed latency
    of every L1I demand miss.  Injected Ripple hints execute at the end
    of their block (invalidating or demoting their target line in the
    L1I only).  {!replay} drives the same caches and timing from a
    recorded access stream instead of the live front end, which is how
    one recording serves every replacement policy.

    IPC is computed over {e original} instructions (hint instructions
    excluded from the numerator, though they cost cycles), so runs of the
    same trace with and without instrumentation are directly comparable:
    speedup = IPC ratio = cycle ratio for equal work, the paper's metric. *)

module Program := Ripple_isa.Program
module Stats := Ripple_cache.Stats
module Access_stream := Ripple_cache.Access_stream
module Belady := Ripple_cache.Belady
module Policy := Ripple_cache.Policy
module Prefetcher := Ripple_prefetch.Prefetcher
module Int_stream := Ripple_util.Int_stream

type result = {
  instructions : int;  (** retired, including hint instructions *)
  hint_instructions : int;
  cycles : float;
  ipc : float;  (** original instructions per cycle *)
  demand_misses : int;
  mpki : float;  (** demand misses per kilo original instructions *)
  l1i : Stats.t;
  served_l2 : int;
  served_l3 : int;
  served_memory : int;
}

val result_to_json : result -> Ripple_util.Json.t
(** Machine-readable form of a result (all counters plus the L1I stats
    as a nested object) — the payload of the experiment runner's JSONL
    output.  Deterministic: equal results render byte-identically. *)

(** A basic-block trace by index.  [Blocks] is the materialized
    [int array] every small driver uses; [Stream] reads block ids out of
    an {!Ripple_util.Int_stream} — which, spill-backed, keeps a
    100 M-block trace out of the heap entirely.  The simulator is
    agnostic: both replay identically. *)
module Trace : sig
  type t = Blocks of int array | Stream of Int_stream.t

  val of_blocks : int array -> t
  val of_stream : Int_stream.t -> t
  val length : t -> int

  val get : t -> int -> int
  (** Unchecked on the [Blocks] case — for loop-bounded callers. *)

  val to_blocks : t -> int array
  (** Materializes a [Stream] trace; the identity on [Blocks]. *)

  val close : t -> unit
  (** Releases a [Stream] trace's backing (unlinking its spill file);
      no-op on [Blocks]. *)
end

(** SimPoint-style sampled simulation: [windows] measurement windows of
    [window_blocks] trace blocks each, placed deterministically from
    [seed] — one per equal segment of the steady-state region
    (stratified, so coverage is spread across phases).  Each window
    replays from the warm-up checkpoint: [warm_blocks] of uncounted ramp
    detrain the checkpoint bias, then the window is measured and its
    counter deltas spliced into the totals.  When the windows cover the
    whole steady-state region, the sampled run degenerates to — and is
    exactly equal to — the full run. *)
module Sampling : sig
  type t = {
    windows : int;
    window_blocks : int;
    warm_blocks : int;
    seed : int;
  }

  val v : ?warm_blocks:int -> ?seed:int -> windows:int -> window_blocks:int -> unit -> t
  (** Defaults: [warm_blocks = 0], [seed = 1].  Raises [Invalid_argument]
      on non-positive [windows] / [window_blocks] or negative
      [warm_blocks]. *)

  type report = {
    spans : (int * int) array;  (** measured [start, end) trace windows *)
    measured_blocks : int;
    total_blocks : int;  (** steady-state blocks, [warmup..n) *)
    coverage : float;  (** measured / total; 1.0 when degenerate *)
  }

  val select : warmup:int -> n:int -> t -> (int * int) array
  (** The window placement itself — deterministic in [(t, warmup, n)];
      exposed so reports and tests can reproduce it. *)

  val report_of_spans : warmup:int -> n:int -> (int * int) array -> report
  val report_to_json : report -> Ripple_util.Json.t
end

val run :
  ?config:Config.t ->
  ?warmup:int ->
  ?obs:Ripple_obs.Run.t ->
  ?on_hint:(at:int -> Ripple_isa.Basic_block.hint -> resident:bool -> unit) ->
  program:Program.t ->
  trace:int array ->
  policy:Policy.factory ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  result
(** Full simulation of [trace] over [program].  [on_hint] fires for every
    executed hint instruction with the trace index and whether its target
    line was resident in the L1I at that moment — the observation point
    for Ripple's replacement-accuracy metric.  [warmup] names a trace
    index before which the caches are exercised but nothing is counted:
    all measurements are steady-state, as in the paper's 100 M-instruction
    steady-state captures.

    [obs] attaches the run to an observability context: the final result
    is folded into the [ripple_sim_*] counters ({!observe_result}), and
    ~16 periodic IPC/MPKI samples land in the [ripple_sim_ipc] /
    [ripple_sim_mpki] series, timestamped in {e virtual} time (the trace
    index) so the series — like every counter — is byte-identical across
    pool sizes. *)

val run_trace :
  ?config:Config.t ->
  ?warmup:int ->
  ?obs:Ripple_obs.Run.t ->
  ?on_hint:(at:int -> Ripple_isa.Basic_block.hint -> resident:bool -> unit) ->
  ?sampling:Sampling.t ->
  ?recorded:(unit -> Access_stream.t * (int -> int)) ->
  program:Program.t ->
  trace:Trace.t ->
  policy:Policy.factory ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  result * Sampling.report option
(** {!run} generalized over the trace representation, with optional
    sampled execution.  Without [sampling] this is exactly [run] (report
    is [None]).  With [sampling], the run warms to [warmup], checkpoints
    the full microarchitectural state (L1I + policy, L2/L3, prefetcher
    and branch predictors, in-flight prefetches), then measures only the
    selected windows, splicing their counter deltas; [on_hint] fires only
    inside measured windows, and the periodic IPC/MPKI series is not
    emitted.  A degenerate sampling (windows covering the whole
    steady-state region) reproduces the full run's result exactly.

    [recorded] offers the access stream [prefetcher] issues over [trace]
    (with its position index, as {!replay} takes them).  An unsampled
    run then calls it and is {!replay} over what it returns, with the
    same result, [obs] snapshot and [on_hint] sequence; a sampled run
    never calls it, because its checkpoints rewind the prefetcher, so it
    always drives the live front end.  Offer a recording only for a
    prefetcher whose issue stream is a function of control flow alone
    (see {!replay}).  The caller keeps ownership of the stream. *)

val replay :
  ?config:Config.t ->
  ?warmup:int ->
  ?obs:Ripple_obs.Run.t ->
  ?on_hint:(at:int -> Ripple_isa.Basic_block.hint -> resident:bool -> unit) ->
  program:Program.t ->
  trace:Trace.t ->
  policy:Policy.factory ->
  stream:Access_stream.t ->
  pos:(int -> int) ->
  unit ->
  result
(** {!run_trace} without the front end: drives the L1I (under [policy])
    and the L2/L3 hierarchy from [stream], the access stream recorded
    over [trace] by {!record_stream_indexed_trace} with the same
    [config] and [program]; [pos i] is entry [i]'s trace index from the
    position index recorded with it.  Per access it does what
    [run_trace] does: a demand access charges a miss penalty and counts
    the level that served it, a completed prefetch fetches its line
    through L2/L3 uncounted.  When the position index moves past block
    [at] — before the first entry of a later block, or at the end of
    the stream — block [at] retires: its hints run ([on_hint], then the
    invalidate or demote), its instructions are counted and the [obs]
    IPC/MPKI sampler ticks.  The counters are reset before the first
    entry tagged [warmup].  Raises [Invalid_argument] on a position at
    or past the end of [trace].

    Callers reach it through {!run_trace}[ ~recorded], which owns the
    choice between the two drivers.  The result, the [obs] snapshot and
    the [on_hint] sequence equal those of an unsampled [run_trace]
    without [recorded] over the same inputs {e provided} the
    prefetcher's issue stream is a function of control flow alone (see
    {!Ripple_prefetch.Prefetcher}).  The stream was recorded beside an
    LRU model, so a prefetcher that reacts to [~missed] would have
    issued differently under [policy] or under the hints.  The three
    pipeline prefetchers ({!prefetcher_none}, {!prefetcher_nlp},
    {!prefetcher_fdip}) qualify; RDIP, which trains on misses, does not,
    and its runs must drive the live front end. *)

val register_obs : Ripple_obs.Registry.t -> unit
(** Pre-registers the simulator's whole metric vocabulary
    ([ripple_sim_*] counters plus the IPC/MPKI series), fixing the
    snapshot schema even for runs that never fire some events.
    Find-or-create: safe to call repeatedly. *)

val observe_result : Ripple_obs.Run.t -> result -> unit
(** Folds a finished result into the [ripple_sim_*] counters — what
    [run ~obs] does automatically, exposed for paths that compute a
    result without the full simulation loop ({!oracle},
    {!ideal_cache}). *)

val ideal_cache :
  ?config:Config.t -> ?warmup:int -> program:Program.t -> trace:int array -> unit -> result
(** The Fig. 1 limit: an I-cache that never misses. *)

val ideal_cache_trace :
  ?config:Config.t -> ?warmup:int -> program:Program.t -> trace:Trace.t -> unit -> result
(** {!ideal_cache} over either trace representation. *)

val oracle :
  ?config:Config.t ->
  ?warmup:int ->
  ?stream:Access_stream.t * int array ->
  ?replay:Belady.result ->
  mode:Belady.mode ->
  program:Program.t ->
  trace:int array ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  result
(** Ideal replacement (MIN or Demand-MIN) over the access stream the
    prefetcher produces ({!record_stream}); the oracle replays it
    offline — the standard construction for prefetch-aware replacement
    limit studies.  [stream] supplies a
    pre-recorded indexed stream (as returned by
    {!record_stream_indexed} for the same config/trace/prefetcher),
    letting callers that run several oracles over one stream — or memo
    it across cells — skip the re-recording; recording is
    deterministic, so the result is identical either way.

    [replay] supplies a finished Belady replay (recorded with
    [~record_fills:true], possibly assembled from per-set shards with
    {!Belady.merge}); the Belady pass is then skipped and the recorded
    fill sequence drives the L2/L3 hierarchy instead — byte-identical to
    the inline pass, since fills are replayed in stream order. *)

val oracle_result :
  ?config:Config.t ->
  instructions:int ->
  count_from:int ->
  stream:Access_stream.t ->
  Belady.result ->
  result
(** The assembly step of {!oracle}[ ~replay] on its own: replays the
    recorded fills through a fresh L2/L3 hierarchy and packages the
    Belady counters as a simulation result.  [instructions] is the
    steady-state instruction count of the underlying trace;
    [count_from] the first measured stream index. *)

val stream_count_from : stream_pos:int array -> warmup:int -> int
(** First stream index whose recorded trace position is [>= warmup] —
    the [count_from] boundary shared by {!oracle} and sharded callers. *)

val record_stream :
  ?config:Config.t ->
  program:Program.t ->
  trace:int array ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  Access_stream.t
(** The demand+prefetch access stream the front end issues over
    [trace]: per block, the prefetches completing as it is fetched, then
    its demand fetches — the input to {!oracle}, {!replay} and Ripple's
    offline analysis.  An LRU L1I model runs alongside only to supply
    the prefetcher's [~missed] argument, which none of the pipeline
    prefetchers reads, so for them the stream is a function of the
    trace and the program alone and holds for every replacement policy.
    Recorded straight into packed chunks: one word per access, no boxed
    records, so a 10x longer trace costs 10x one-word entries and
    nothing else. *)

val record_stream_indexed :
  ?config:Config.t ->
  program:Program.t ->
  trace:int array ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  Access_stream.t * int array
(** Like {!record_stream}, additionally returning, per stream entry, the
    index into [trace] of the block being fetched when the access
    reached the L1I (for a prefetch, the block it completes at, not the
    one that issued it) — the coordinate change Ripple's analysis uses
    to express eviction windows over the basic-block trace, and the
    block boundaries {!replay} retires blocks at. *)

val record_stream_indexed_trace :
  ?config:Config.t ->
  ?backing:Int_stream.backing ->
  program:Program.t ->
  trace:Trace.t ->
  prefetcher:(Program.t -> Prefetcher.t) ->
  unit ->
  Access_stream.t * Int_stream.t
(** {!record_stream_indexed} generalized over the trace representation
    and the stream backing: with [~backing:(Spill _)] both the access
    stream and its position index are written through to mmap-backed
    spill files, so recording a 100 M-block trace leaves O(1) heap
    behind. *)

val prefetcher_none : Program.t -> Prefetcher.t
val prefetcher_nlp : ?config:Config.t -> Program.t -> Prefetcher.t
val prefetcher_fdip : ?config:Config.t -> Program.t -> Prefetcher.t

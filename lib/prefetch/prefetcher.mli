(** Front-end prefetcher interface.

    The trace-driven simulator calls [on_block] once per executed basic
    block — the prefetcher trains on the observed control flow and
    returns the prefetch accesses it issues ahead of the block's demand
    fetch — and [on_demand] after each demand reference, letting reactive
    schemes (next-line) chase misses.  Prefetches are modelled as
    instantaneous fills: a correct prefetch fully hides the miss, an
    incorrect one pollutes the cache, which is precisely the eviction
    problem Ripple targets (§II-C).

    {b Replay precondition.}  When a prefetcher's issue stream is a
    function of control flow alone — its [on_block]/[on_demand] results
    depend on the blocks and lines it is shown, never on [~missed] — the
    front end's access stream is the same under every replacement policy
    and every hint, so it can be recorded once and replayed per policy
    ([Ripple_cpu.Simulator.run_trace ~recorded]).  {!none}, [Nlp] and [Fdip] meet
    it (pinned by a test in [test_prefetch.ml]); [Rdip], which trains
    on misses, does not, and is simulated live. *)

module Basic_block := Ripple_isa.Basic_block
module Addr := Ripple_isa.Addr
module Access := Ripple_cache.Access

type t = {
  name : string;
  on_block : Basic_block.t -> Access.packed list;
      (** Called in execution order; result is issued to the I-cache
          (as prefetches) before the block's own demand accesses.
          Packed ({!Access.packed}) so issuing costs one list cell per
          prefetch and nothing more. *)
  on_demand : line:Addr.line -> missed:bool -> Access.packed list;
      (** Called after each demand access with its hit/miss outcome.
          A prefetcher that reads [missed] breaks the replay
          precondition above. *)
  save : unit -> unit -> unit;
      (** [save ()] captures a deep copy of the prefetcher's training
          state (history, BTB, RAS, queues); the thunk restores it.
          Checkpointed warm-up rewinds to it before each sampled
          window. *)
}

val nop_save : unit -> unit -> unit
(** For stateless prefetchers. *)

val none : t
(** The no-prefetching baseline. *)

(** Eviction windows (§III-B).

    An eviction window of cache line [A] spans from the last access to
    [A] to the access that triggers [A]'s eviction under the ideal
    replacement policy; the basic blocks executed inside it are the
    candidate cue blocks from which Ripple may signal the eviction.
    Windows come straight out of the {!Ripple_cache.Belady} replay and
    can be re-expressed in trace coordinates (block-occurrence indices)
    for metrics that observe executed blocks rather than cache accesses. *)

module Addr := Ripple_isa.Addr
module Belady := Ripple_cache.Belady

type t = {
  victim : Addr.line;
  start : int;  (** position of the victim's last access (exclusive) *)
  stop : int;  (** position of the eviction-triggering access (inclusive) *)
}

val of_evictions : ?demand_covered_only:bool -> Belady.eviction array -> t array
(** Windows in stream coordinates, in eviction order.
    [demand_covered_only] keeps only windows whose victim's next
    reference is a demand access (or none at all): under Demand-MIN the
    remaining windows are "paid for" by a future prefetch the hardware
    oracle knows about but a software invalidation cannot rely on —
    injecting for them risks real misses, one of the coverage gaps of
    §IV. *)

val to_trace_coords : t array -> stream_pos:int array -> t array
(** Re-expresses each window using [stream_pos], the per-stream-entry
    trace index from {!Ripple_cpu.Simulator.record_stream_indexed_trace}. *)

val to_trace_coords_with : t array -> pos:(int -> int) -> t array
(** {!to_trace_coords} over an arbitrary position lookup — e.g. a
    spill-backed {!Ripple_util.Int_stream} index, which this way never
    has to materialize in the heap. *)

val count_for : t array -> line:Addr.line -> int

(** Per-line interval membership with monotone queries: build once, then
    ask whether position [at] falls inside one of [line]'s windows, with
    [at] non-decreasing across calls for any given line. *)
module Index : sig
  type window := t
  type t

  val create : window array -> t
  val mem : t -> line:Addr.line -> at:int -> bool
end

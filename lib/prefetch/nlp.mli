(** Next-line prefetcher (Smith 1978).

    On a demand reference to line [X], prefetch [X+1 .. X+degree] — the
    classic sequential prefetcher and one of the paper's three
    prefetching baselines.  Prefetching is triggered by {e accesses},
    not misses, so the prefetch stream is a pure function of the demand
    stream: it does not depend on cache contents, which is what lets the
    Demand-MIN analysis (and Ripple's injected invalidations) reason
    about it soundly.  A small filter suppresses the duplicate
    next-line requests that sequential fetch would otherwise spray.
    [~missed] is ignored, so the simulator may replay a recorded stream
    in place of this prefetcher ({!Prefetcher.t}). *)

val create : ?degree:int -> unit -> Prefetcher.t
(** [degree] defaults to 1. *)

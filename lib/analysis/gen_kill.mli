(** Gen/kill dataflow over sets of tracked cache lines, solved by
    {!Fixpoint} (layers 3–4 substrate; DESIGN.md "Static verification").

    One engine serves every bit-vector fact the hint verifier needs:
    hit-liveness and must-invalidated in {!Invalidation_check}, and the
    re-reference reachability behind {!Abs_cache.prove}'s dead proofs.
    Each is the least solution of

    {v
      in(v)  = entry(v) U ( U out(p), p in preds(v) )
      out(v) = gen(v) U (in(v) \ kill(v))
    v}

    over the tracked lines, packed into {!Bits}.  A backward problem
    passes successor lists as [preds] and reads [in]/[out] with their
    roles swapped.  Every boundary or generating node is an entry, so
    facts also flow around cycles no root reaches, and the solve visits
    only the nodes they can reach.  The lattice is a finite powerset
    and the transfer monotone, so the solve terminates without
    widening. *)

module Addr := Ripple_isa.Addr

(** Dense bit sets over [[0, k)], packed into int arrays. *)
module Bits : sig
  type t = int array

  val create : int -> t
  (** The empty set with room for [k] bits. *)

  val get : t -> int -> bool
  val set : t -> int -> unit
  val clear : t -> int -> unit

  val inter_into : t -> t -> unit
  (** [inter_into dst src] replaces [dst] by [dst ∩ src]. *)

  val union_into : t -> t -> unit
  (** [union_into dst src] replaces [dst] by [dst ∪ src]. *)

  val count : t -> int
  val equal : t -> t -> bool
end

type t

val solve :
  tracked:Addr.line list ->
  preds:int list array ->
  boundary:(int -> bool) ->
  gen:(int -> Addr.line list) ->
  kill:(int -> Addr.line list) ->
  t
(** The least solution over nodes [0 .. Array.length preds - 1], where
    [entry(v)] is every tracked line when [boundary v] holds and empty
    otherwise.  Duplicates in [tracked] are harmless; untracked lines in
    [gen]/[kill] are ignored, as are out-of-range predecessors. *)

val mem_in : t -> node:int -> Addr.line -> bool
val mem_out : t -> node:int -> Addr.line -> bool
(** [false] for untracked lines and out-of-range nodes. *)

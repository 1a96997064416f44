(** Calendar queue: int events scheduled on absolute cycles.

    A power-of-two wheel of growable int buckets indexed by
    [cycle mod wheel size]. Designed for cycle-level simulators that
    schedule a bounded distance into the future and drain every cycle in
    order: each bucket holds the events of at most one live cycle, and a
    collision between two distinct live cycles doubles the wheel. The
    first 16 events of every slot live in one flat array that {!create}
    allocates; only a cycle with more events spills into a growable array
    of the slot's own, whose capacity is kept across drains. So a run
    allocates only when one cycle's events outnumber every earlier
    cycle's in the same slot.

    Unlike a [Hashtbl]-bucketed schedule, adding and draining never box
    keys, never hash, and never cons. *)

type t

val create : horizon:int -> t
(** A wheel of at least [horizon] slots (rounded up to a power of two).
    [horizon] should cover the maximum scheduling distance (longest
    latency); an undersized wheel only costs growth, not correctness.
    Raises [Invalid_argument] when [horizon <= 0]. *)

val add : t -> int -> int -> unit
(** [add t cycle v] schedules the event [v] for [cycle]. Raises
    [Invalid_argument] on a negative cycle. *)

val take : t -> int -> int
(** [take t cycle] empties the bucket of exactly [cycle] and returns how
    many events it held; they stay readable, in insertion order, as
    [taken t 0 .. taken t (n - 1)] until the next [take]. Events of
    other cycles are untouched. The bucket is released before the caller
    reads any event, so a handler may [add] events for any later cycle,
    into this bucket's slot too. A per-cycle caller drains with a loop
    over {!taken} and calls its handler directly: no closure is built or
    applied. Allocates only when one cycle holds more events than every
    earlier [take] returned. *)

val taken : t -> int -> int
(** [taken t j] is the [j]th event the last {!take} returned. *)

val horizon : t -> int
(** Current wheel size (slots). *)

val length : t -> int
(** Scheduled events across all cycles. *)

val is_empty : t -> bool

val clear : t -> unit
(** Forget all scheduled events; keeps the wheel and bucket storage. *)

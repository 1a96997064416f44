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

val drain : t -> int -> ('a -> int -> unit) -> 'a -> unit
(** [drain t cycle f x] applies [f x] to every event scheduled for
    exactly [cycle] (in insertion order) and empties that bucket. Events
    of other cycles are untouched. [f] may [add] events for later cycles,
    but must not add for the cycle being drained. Passing the handler's
    state as [x] lets a per-cycle caller drain with a top-level function,
    so the drain allocates no closure. *)

val horizon : t -> int
(** Current wheel size (slots). *)

val length : t -> int
(** Scheduled events across all cycles. *)

val is_empty : t -> bool

val clear : t -> unit
(** Forget all scheduled events; keeps the wheel and bucket storage. *)

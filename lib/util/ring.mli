(** Bounded FIFO queue of ints over a circular buffer.

    Used throughout the microarchitecture for queues of instruction uids:
    BEU FIFOs, scheduler windows and the fetch buffer all need O(1)
    push/pop with a hard capacity and indexed access from the head (for
    scheduling windows). The buffer is an [int array], so a store is a
    plain word write: no write barrier, no placeholder for vacated slots,
    and no allocation after {!create}. *)

type t = private {
  buf : int array;
  cap : int;  (** the capacity: [Array.length buf] *)
  mutable head : int;
  mutable len : int;
}
(** A record, visibly so: an array of rings is then known to hold
    pointers, so reading one compiles to a plain load, not the generic
    array read that first tests for a float array. Fields are read-only
    outside the module. The capacity sits beside [head] and [len], so an
    index check never reads the buffer's header. *)

val create : capacity:int -> t
(** [create ~capacity] makes an empty ring holding at most [capacity]
    elements. [capacity] must be positive. *)

val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val push : t -> int -> unit
(** Appends at the tail. Raises [Failure] when full. *)

val pop : t -> int
(** Removes and returns the head. Raises [Failure] when empty. *)

val peek : t -> int
(** Returns the head without removing it. Raises [Failure] when empty. *)

val get : t -> int -> int
(** [get t i] is the element [i] positions from the head ([get t 0 = peek
    t]). Raises [Invalid_argument] when out of range. *)

val remove_at : t -> int -> int
(** [remove_at t i] removes and returns the element [i] positions from the
    head; the others keep their order. It moves [min i (length t - 1 - i)]
    elements, whichever side of [i] is shorter, so removing near the head
    (a scheduling window) or at the tail is O(1). Raises
    [Invalid_argument] when out of range. *)

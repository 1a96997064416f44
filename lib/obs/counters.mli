(** Named monotonic counters for long-lived services — the daemon's
    [dse.*] cache-effectiveness counts. A simulation run keeps no counters
    here: its counter dump is read off the finished core's own state
    ([Braid_uarch.Core.counters]). *)

type t
(** A registry. Not thread-safe: one writer at a time. *)

val create : unit -> t

val add : t -> string -> int -> unit
(** [add t name n] adds [n] to [name], registering it (at [n]) on first
    use; [add t name 0] registers a counter so it is listed before it
    counts anything. *)

val snapshot : t -> (string * int) list
(** Current values, in registration order. *)

(** Bounded ring buffer of typed per-cycle pipeline events.

    A tracer only exists when someone gave one to the run's probe
    ([Braid_uarch.Probe]), so the simulator's default path never
    constructs an event. At
    capacity the oldest events are dropped (and counted), keeping a run's
    memory bounded no matter how long it is: the buffer always holds the
    most recent window.

    Tracks identify where an event happened: [-1] is the front end
    (fetch/dispatch), [0..n-1] the BEU (or cluster/FU group) index. *)

type stage = Fetch | Dispatch | Issue | Complete | Commit

val stage_name : stage -> string

type event =
  | Stage of { cycle : int; uid : int; stage : stage; track : int }
      (** One instruction crossed a pipeline-stage boundary. *)
  | Exec of { uid : int; track : int; start : int; dur : int }
      (** Issue-to-completion span of one instruction on one BEU/FU. *)
  | Stall of { cycle : int; track : int; reason : string }
      (** A structure refused work this cycle. *)
  | Span of { name : string; cat : string; track : int; start : int; dur : int }
      (** A multi-cycle occupancy, e.g. a cache-miss fill. *)

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val capacity : t -> int
val length : t -> int

val dropped : t -> int
(** Events evicted because the buffer was full. *)

val record : t -> event -> unit

val events : t -> event list
(** Retained events, oldest first. *)

val track_of : event -> int

(** The one per-run observer of the timing model: an optional event
    tracer, the commit recorder and the optional microarchitectural
    invariant monitor, behind a single hook per pipeline event.

    The default value {!off} is [None]: every hook pattern-matches it away
    in one branch, and simulation results are byte-identical whatever the
    probe records, because the hooks only observe machine state, never
    mutate it. Counters are not a probe's business: a run's counter dump
    is read off the finished core ([Core.counters]).

    A live probe records the committed instruction stream (uids and PCs,
    for the differential oracle); with a tracer it builds every pipeline
    event record (stage crossings, execution spans, stalls with their
    reason, cache-miss fills); and when [invariants] is set it checks the
    structural properties §3–§4 of the paper rely on:

    - ["commit.order"]: instructions commit in strict fetch order (the
      global BEU-FIFO commit discipline);
    - ["extfile.capacity"] / ["extfile.double-release"]: the number of
      in-flight external values never exceeds [ext_regs] and releases
      balance allocations (busy-bit consistency);
    - ["internal.rf-capacity"] / ["internal.rf-range"]: at most
      {!Reg.num_internal} live internal values per BEU, all with indices
      inside the 8-entry file;
    - ["internal.cross-beu"] / ["internal.cross-braid"]: an internal value
      is only ever consumed inside the braid (and on the BEU) that
      produced it;
    - ["bypass.internal"]: only external (E-bit) results ride the bypass
      network;
    - ["bits.*"]: the S/T/I/E bits carried on each fetched trace entry
      agree with the instruction encoding, and conventional binaries carry
      no internal registers;
    - ["wakeup.premature"]: no instruction issues before all producers
      have issued and their values are visible;
    - ["wakeup.cross-cluster"]: on a clustered braid core
      ([beu_cluster_size > 0], §5.2), no external read of a value
      produced on a BEU of another cluster issues before the value's
      visible cycle plus [inter_cluster_latency];
    - ["beu.window"]: an in-order BEU never issues from beyond the
      [sched_window]-entry head of its FIFO. The monitor counts the
      position itself: it mirrors each BEU's unissued uids from
      {!on_dispatch} and {!on_issue};
    - ["beu.capacity"]: a dispatch never finds its in-order BEU already
      holding [cluster_entries] unissued instructions;
    - ["cgooo.block-order"]: a CG-OoO block window issues strictly in
      dispatch order — uids leaving one window only ever increase. *)

type violation = {
  invariant : string;  (** dotted invariant name, e.g. ["commit.order"] *)
  cycle : int;
  uid : int;  (** instruction (trace uid) the violation was observed on *)
  detail : string;
}

type t
(** [None]-like when off; created per pipeline run, not shared. *)

val off : t
(** The default probe: all hooks are no-ops and cost one pattern match. *)

val create : ?tracer:Braid_obs.Tracer.t -> ?invariants:bool -> Config.t -> t
(** A live probe. Always records the committed stream; records pipeline
    events into [tracer] when given; checks invariants only when
    [invariants] (default [true]). *)

val violations : t -> violation list
(** The first 200 violations, in the order they were found. *)

val violation_count : t -> int
(** Every violation found, recorded or not. *)

val committed : t -> int array
(** Uids in commit order. *)

val committed_pcs : t -> int array
(** PCs in commit order (parallel to {!committed}). *)

val pp_violation : Format.formatter -> violation -> unit

(** {2 Hooks} — one call per event site in [Machine] and [Core]. *)

val on_fetch : t -> Trace.t -> cycle:int -> int -> unit
(** [on_fetch t trace ~cycle u]: uid [u] of [trace] crossed fetch; S/T/I/E
    bit consistency. *)

val on_icache_miss : t -> cycle:int -> lat:int -> unit
(** Fetch stopped on an I-cache miss that takes [lat] cycles to fill. *)

val on_dispatch : t -> Trace.t -> cycle:int -> beu:int -> int -> unit
(** Dispatch stage crossing of a uid; external-file allocation; clears the BEU's
    internal live-set on an S-bit instruction; an armed monitor appends
    the uid to its in-order BEU's unissued list. *)

val on_stall : t -> cycle:int -> string -> unit
(** A front-end structure refused work this cycle, with the reason. *)

val on_issue :
  t -> Trace.t -> cycle:int -> lat:int -> visible:int -> beu:int -> bypassed:bool -> int -> unit
(** [on_issue t trace ~cycle ~lat ~visible ~beu ~bypassed u]: uid [u] of
    [trace] issued at [cycle] on BEU / block window [beu] (-1 when none)
    with latency [lat] (execution span, L1D-miss fill). Its result is
    readable outside it from cycle [visible]: its external copy's cycle,
    over the bypass when [bypassed], or its completion when it has none.
    Checks wakeup timing, internal-value isolation, bypass legality,
    internal-RF occupancy and, on an in-order BEU, the FIFO position the
    uid left from. An armed monitor keeps these facts per uid in
    its own record, so it checks a consumer against producers of any
    age, whatever the machine still holds of them. *)

val on_ext_release : t -> cycle:int -> uid:int -> unit
(** An external register returned to the free list (early release or
    commit). *)

val on_commit : t -> Trace.t -> cycle:int -> beu:int -> int -> unit
(** Commit stage crossing of a uid; records the committed uid/PC and checks global
    commit order. *)

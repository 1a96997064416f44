(** Dynamic instruction traces.

    The timing simulators are execution-driven: the emulator runs the
    program for real and records one entry per retired instruction, with
    true register data dependences already resolved to producer uids
    (register renaming makes false dependences irrelevant to timing; memory
    dependences are resolved by the LSQ model from the recorded
    addresses).

    A trace is stored as columns. The static half of every instruction
    (its {!static} record) is built once per program and shared by
    reference by every trace and window of it; per dynamic instruction
    the trace keeps only the static index, the address, a flag byte
    (taken, faulting, braid start) and its register dependences in CSR
    form. Timing models read the columns through the accessors below;
    {!event} assembles the full record of one instruction on demand, for
    readers off the hot path.

    {b Layout.} The columns live off the OCaml heap, as Bigarrays the GC
    neither scans nor moves, 32-bit where the values fit: the static
    index, the CSR offsets and the dependence entries are [int32]s, the
    address is an [int], the flags are a [Bytes.t]. A dependence entry
    packs [uid lsl 1 lor via], so a trace holds fewer than 2{^30}
    instructions; {!Builder} raises [Invalid_argument] past that bound.
    At 1.25–1.76 dependences per instruction that is 22–24 bytes per
    dynamic instruction ({!column_bytes}). *)

(** The static half of an instruction's trace entry: everything that is
    the same for every dynamic instance of it. *)
type static = {
  pc : int;  (** byte address of the static instruction *)
  block_id : int;
  offset : int;  (** position within the block *)
  instr : Instr.t;
  is_load : bool;
  is_store : bool;
  is_cond_branch : bool;
  is_jump : bool;
  latency : int;  (** FU latency, memory time excluded *)
  writes_ext : bool;  (** allocates an external register / rename entry *)
  writes_int : bool;  (** writes a braid-internal register *)
  ext_src_reads : int;  (** external register file reads requested *)
  int_src_reads : int;
  braid_id : int;
}

(** One dynamic instruction as a record: a view assembled by {!event}. *)
type event = {
  uid : int;  (** dense dynamic index, starting at 0 *)
  pc : int;
  block_id : int;
  offset : int;
  instr : Instr.t;
  deps : (int * bool) array;
      (** register value producers (RAW): [(uid, via_internal)], where
          [via_internal] marks values flowing through a braid-internal
          register (same BEU, never on the bypass network or external
          register file); sorted, without duplicates *)
  addr : int;  (** byte address for loads/stores, -1 otherwise *)
  is_load : bool;
  is_store : bool;
  is_cond_branch : bool;
  is_jump : bool;
  taken : bool;  (** conditional branches: outcome; jumps: true *)
  latency : int;
  writes_ext : bool;
  writes_int : bool;
  ext_src_reads : int;
  int_src_reads : int;
  braid_id : int;
  braid_start : bool;
  faulting : bool;  (** arithmetic fault occurred (exception-mode trigger) *)
}

type stop_reason = Halted | Steps_exhausted

type t

val length : t -> int
val stop : t -> stop_reason

val program : t -> Program.t
(** The program the trace executed. *)

(** {2 Columns} — allocation-free, for the timing models. *)

val static : t -> int -> static
(** The shared static record of the instruction with this uid. *)

val addr : t -> int -> int
(** Load/store byte address, -1 for every other instruction. *)

val taken : t -> int -> bool
(** Conditional branches: the outcome; jumps: true; otherwise false. *)

val faulting : t -> int -> bool

val braid_start : t -> int -> bool
(** The instruction's S bit, or the first braid instruction of a window
    that opens mid-braid (see {!Emulator.Compiled.trace_window}). *)

val dep_off : t -> int -> int
(** CSR offsets of the register dependences: those of uid [u] are the
    entries [dep_off t u .. dep_off t (u + 1) - 1], sorted by producer
    uid, internal after external for the same producer, without
    duplicates. [dep_off t (length t)] is the total. *)

val dep_uid : t -> int -> int
(** Producer uid of a dependence entry. *)

val dep_via : t -> int -> bool
(** The dependence entry's value flows through a braid-internal
    register. *)

val max_deps : t -> int
(** The most dependence entries of any one instruction, recorded while
    the trace was built. *)

val column_bytes : t -> int
(** Bytes held by the trace's per-instruction columns (the static table
    and the program are shared, and not counted). *)

val branch_of : static -> bool
(** [is_cond_branch || is_jump]. *)

(** {2 Views} *)

val event : t -> int -> event
(** The full record of the instruction with this uid, assembled from the
    columns (it allocates: not for per-cycle use). *)

val of_events : Program.t -> event array -> t
(** A trace holding exactly these events ([Halted]), one static record
    per event: [event (of_events p es) u = es.(u)]. For hand-built test
    traces. Raises [Invalid_argument] unless [es.(u).uid = u] and every
    dependence names an older uid. *)

(** {2 Production} *)

(** The flag bits of one instruction, as {!Builder.push} takes them. *)

val flag_taken : int
val flag_faulting : int
val flag_braid_start : int

(** Appends instructions to a trace one at a time; the producer behind
    {!Emulator.Compiled.trace_window}. *)
module Builder : sig
  type trace := t
  type t

  val create : static array -> Program.t -> capacity:int -> max_reads:int -> t
  (** An empty trace over this static table (shared, not copied), whose
      instructions each read at most [max_reads] producers, with room for
      [capacity] instructions before its columns grow: a producer that
      knows the length up front writes each column once, and nothing
      initialises them first. Raises [Invalid_argument] when [capacity]
      exceeds 2{^30}, or when [capacity * max_reads] dependence entries
      overflow the 32-bit offsets. *)

  val add_dep : t -> int -> bool -> unit
  (** [add_dep b p via] records a register read of producer uid [p] for
      the instruction being built: kept sorted, an exact duplicate
      dropped. Raises [Invalid_argument] unless [p] is an earlier uid, or
      when the instruction would read more than [max_reads] producers. *)

  val push : t -> int -> addr:int -> int -> unit
  (** [push b s ~addr flags] closes the instruction being built as a
      dynamic instance of static index [s], with the flag bits [flags]
      (a union of the three above: a jump is taken, a conditional
      branch taken by its outcome, [flag_braid_start] is the S bit).
      Raises [Invalid_argument] on other bits, and when the
      instruction's uid would reach 2{^30}. *)

  val finish : t -> stop_reason -> trace
  (** The trace built so far, its columns views of the builder's. Its
      first instruction is promoted to a braid start when it lies inside
      a braid: the braid core only accepts a stream whose first braid
      instruction claims a BEU. *)
end

(** {2 Warm-up buffers} *)

(** What a functional warm-up replays into caches and predictor: per
    instruction, its static index and one value — the effective address
    of a load or store, the outcome of a conditional branch (1 taken, 0
    not), 0 for anything else. No uids, dependences or flags: a sampler
    walks tens of thousands of instructions before every measured window
    and reads nothing else. The buffer is caller-owned and allocated
    once ({!Emulator.Compiled.warm_window} refills it), so repeated
    warm-ups allocate nothing. *)
module Warm : sig
  type trace := t
  type t

  val create : capacity:int -> t
  (** An empty buffer with room for [capacity] instructions. *)

  val capacity : t -> int
  val length : t -> int

  val static : t -> int -> static
  (** The static record of entry [u]; raises [Invalid_argument] outside
      [0, length). *)

  val value : t -> int -> int
  (** Entry [u]'s address or branch outcome (see above); raises
      [Invalid_argument] outside [0, length). *)

  val reset : t -> static array -> unit
  (** Empties the buffer for a walk over the program with this static
      table (shared, not copied). *)

  val push : t -> int -> int -> unit
  (** [push w s v] appends a dynamic instance of static index [s] with
      value [v]; raises [Invalid_argument] when the buffer is full or
      [s] is not an index of the static table given to {!reset}. *)

  val of_trace : trace -> t
  (** The buffer a walk over the same instructions fills: one entry per
      uid, sized to the trace. The conversion behind the timing core's
      [Core.create ~prewarm]. *)
end

(** {2 Derived tables} *)

val warm_lines : t -> int array
(** Distinct 64-byte instruction-line addresses in first-touch order,
    recorded while the trace was built: repeated timing runs over one
    trace — every point of a design-space sweep — warm their caches
    without walking the event stream. *)

type readers
(** A 32-bit per-uid column of reader uids, off the OCaml heap. *)

val last_ext_readers : t -> readers
(** Per producer uid, the highest uid that reads its value externally
    (not through a braid-internal register): the compiler's liveness
    knowledge behind the braid core's dead-value release. Computed on
    first use by one pass over the dependence entries and memoised, so
    a trace only non-braid cores simulate never pays for it. *)

val last_ext_reader : readers -> int -> int
(** [last_ext_reader r p]: that reader of producer [p], -1 when none
    does. *)

val no_readers : readers
(** An empty column, for a core that releases nothing early. *)

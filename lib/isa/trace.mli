(** Dynamic instruction traces.

    The timing simulators are execution-driven: the emulator runs the
    program for real and records one entry per retired instruction, with
    true register data dependences already resolved to producer uids
    (register renaming makes false dependences irrelevant to timing; memory
    dependences are resolved by the LSQ model from the recorded
    addresses).

    A trace is kept as columns. The static half of every instruction
    (its {!static} record) is built once per program and shared by
    reference by every trace and window of it; per dynamic instruction
    the trace keeps only the static index, the address, a flag byte
    (taken, faulting, braid start, no external reader) and its register
    dependences in CSR form. Timing models read the columns through the
    accessors below; {!event} assembles the full record of one
    instruction on demand, for readers off the hot path. A timing
    model's front end reads an instruction once: {!fetch} gives its
    static index and flag byte, {!deps_into} its dependence entries, each
    under one check of the uid.

    {b Layout.} The columns live off the OCaml heap, as Bigarrays the GC
    neither scans nor moves, 32-bit where the values fit: the static
    index, the CSR offsets and the dependence entries are [int32]s, the
    address is an [int], the flags are a [Bytes.t]. A dependence entry
    packs [uid lsl 2 lor last lsl 1 lor via], so a trace holds fewer
    than 2{^29} instructions; {!Builder} and {!stream} raise
    [Invalid_argument] past that bound. At 1.25–1.76 dependences per
    instruction a stored trace takes 22–24 bytes per dynamic instruction
    ({!column_bytes}).

    {b Stored traces and streams.} A stored (kept) trace keeps every
    instruction it was built with: {!Emulator.run},
    {!Emulator.Compiled.trace_window} and {!of_events} build one, each
    into a {!Builder} sized once for it. A stream ({!stream}) keeps a window of
    {!capacity} uids, a power of two, in rings of the same columns, and
    its producer appends to the window as {!refill} lets it drop old
    uids. Both are read through the same accessors: a column index is
    [u land mask] for a uid and [k land mask'] for a dependence entry,
    where a stored trace's masks are the identity (-1). Dependence
    offsets stay absolute. A stream keeps at most [capacity - 1] uids,
    [[lo, produced t)], so that the CSR offsets of the kept uids and of
    the next one fit its ring; its entry ring holds [capacity *
    max_reads] entries rounded up to a power of two. Reading a uid or an
    entry outside the kept range raises [Invalid_argument]. A stored
    trace's kept range is all of it.

    {b Release bits.} The braid core frees a dead value's external
    register at its last external (non-via) read. Each uid carries a
    flag, {!no_ext_reader}, set when no instruction reads its value
    externally, and each dependence entry a bit, {!dep_last}, set on
    the last external read of its producer: the read by the highest
    uid that reads it externally. Each kind of trace has one owner of
    these bits and of its {!warm_lines}. A stored trace derives both
    when it is finished ({!Builder.finish}, {!of_events}), in one
    backward pass over its own columns. A stream's producer finds both
    in a pre-pass before the stream starts ({!Emulator.stream}), and
    marks the bits as it pushes ({!Builder.mark_last}). A {!Builder}
    only appends. *)

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

val max_reads : t -> int
(** The most producers any one instruction of the program reads: a bound
    on every instruction's dependence entries that a stream knows before
    it has produced any. *)

val capacity : t -> int
(** A stream's window: the size of its rings. [max_int] for a stored
    trace. *)

val marked : t -> bool
(** The release bits are set: always for a stored trace, and for a stream
    whose producer computed them. A stream only a core that never
    releases early reads may leave them clear. *)

val produced : t -> int
(** One past the highest uid kept: the stream's frontier, [length] once
    it has produced everything, and always [length] for a stored
    trace. *)

(** {2 Columns} — allocation-free, for the timing models. Each raises
    [Invalid_argument] for a uid or entry outside the kept range. *)

val static : t -> int -> static
(** The shared static record of the instruction with this uid. *)

val addr : t -> int -> int
(** Load/store byte address, -1 for every other instruction. *)

val taken : t -> int -> bool
(** Conditional branches: the outcome; jumps: true; otherwise false. *)

val faulting : t -> int -> bool

val braid_start : t -> int -> bool
(** The instruction's S bit, or the first braid instruction of a trace
    or window that opens mid-braid (see
    {!Emulator.Compiled.trace_window}). *)

val no_ext_reader : t -> int -> bool
(** No instruction of the trace reads this uid's value externally. *)

val fetch : t -> int -> int
(** [fetch t u] is what a front end decodes uid [u] from, read under one
    kept-range check: its static index and its flag byte (the [flag_*]
    bits below), packed as [sidx lsl 8 lor flags]. The static index
    names an entry of {!statics}. *)

val statics : t -> static array
(** The program's static table, indexed by the static index {!fetch}
    returns: shared by reference with every trace of the program, so a
    timing model builds its own per-static-instruction tables from it
    once. Not to be mutated. *)

val deps_into : t -> int -> int array -> int
(** [deps_into t u buf] copies uid [u]'s dependence entries into
    [buf.(0 .. n - 1)] and returns [n], under one kept-range check of
    [u]: a kept uid's entries are kept too. [n] is at most {!max_reads},
    the buffer size that always suffices. Entries are packed ints, read
    with {!entry_uid}, {!entry_via} and {!entry_last}, sorted as
    {!dep_off} describes. Raises [Invalid_argument] for a uid outside the
    kept range, or a buffer shorter than [n]. *)

val entry_uid : int -> int
(** The producer uid of a packed dependence entry. *)

val entry_via : int -> bool
(** A packed entry's value flows through a braid-internal register. *)

val entry_last : int -> bool
(** A packed entry is the last external read of its producer. *)

val dep_off : t -> int -> int
(** CSR offsets of the register dependences: those of uid [u] are the
    entries [dep_off t u .. dep_off t (u + 1) - 1], sorted by producer
    uid, internal after external for the same producer, without
    duplicates. [dep_off t (length t)] is the total. Offsets are
    absolute: a stream's do not restart as its window moves. *)

val dep_uid : t -> int -> int
(** Producer uid of a dependence entry. *)

val dep_via : t -> int -> bool
(** The dependence entry's value flows through a braid-internal
    register. *)

val dep_last : t -> int -> bool
(** The dependence entry is the last external read of its producer. *)

val column_bytes : t -> int
(** Bytes held by the trace's per-instruction columns, or a stream's
    rings (the static table and the program are shared, and not
    counted). *)

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

val flag_no_ext_reader : int
(** Set by a stream's producer from its pre-pass; a stored trace
    computes it when built, whatever {!Builder.push} was given. *)

(** The trace under construction: {!Emulator.Compiled.trace_window},
    {!Emulator.run} and every stream's producer append instructions to
    it one at a time, and {!of_events} fills one from its events. Its
    columns are allocated once and never grow: a stored trace's at the
    exact capacity its producer gives, a stream's as the stream's rings
    (a stream is its own builder). It derives nothing: a stored trace's
    release bits and lines come from {!finish}, a stream's from its
    producer. *)
module Builder : sig
  type trace := t
  type t

  val create : static array -> Program.t -> capacity:int -> max_reads:int -> t
  (** An empty stored trace over this static table (shared, not copied),
      whose instructions each read at most [max_reads] producers, with
      room for exactly [capacity] instructions: each column is allocated
      once at that size and written once, and nothing initialises it
      first. Raises [Invalid_argument] when [capacity] or [max_reads] is
      negative, when [capacity] exceeds 2{^29}, or when [capacity *
      max_reads] dependence entries overflow the 32-bit offsets. *)

  val length : t -> int
  (** Instructions pushed so far: the open instruction's uid. *)

  val add_dep : t -> int -> bool -> unit
  (** [add_dep b p via] records a register read of producer uid [p] for
      the instruction being built: kept sorted, an exact duplicate
      dropped. Raises [Invalid_argument] unless [p] is an earlier uid, or
      when the instruction would read more than [max_reads] producers. *)

  val mark_last : t -> int -> unit
  (** [mark_last b p] sets {!dep_last} on the open instruction's
      external (non-via) entry for producer uid [p], after its
      {!add_dep} calls: how a stream's producer marks the last reads its
      pre-pass found. Raises [Invalid_argument] when the open
      instruction has no external entry for [p]. A stored trace derives
      the bits itself when finished, whatever was marked. *)

  val push : t -> int -> addr:int -> int -> unit
  (** [push b s ~addr flags] closes the instruction being built as a
      dynamic instance of static index [s], with the flag bits [flags]
      (a union of the four above: a jump is taken, a conditional branch
      taken by its outcome, [flag_braid_start] is the S bit). The first
      instruction is promoted to a braid start when it lies inside a
      braid: the braid core only accepts a stream whose first braid
      instruction claims a BEU. Raises [Invalid_argument] on other bits,
      on a static index outside the builder's table (the check that
      keeps {!static} and {!fetch} in range), and when the builder is
      full: a stored builder holds [capacity] instructions, and a
      stream's refills keep its rings from filling. *)

  val finish : t -> stop_reason -> trace
  (** The stored trace built so far: the builder's columns cut to the
      instructions pushed (by views, the flag bytes by a copy when
      short), with its release bits and {!warm_lines} derived by one
      backward pass over them. *)
end

val stream :
  static array ->
  Program.t ->
  capacity:int ->
  max_reads:int ->
  length:int ->
  stop:stop_reason ->
  warm_lines:int array ->
  marked:bool ->
  (Builder.t -> int -> unit) ->
  t
(** [stream proto program ~capacity ~max_reads ~length ~stop ~warm_lines
    ~marked produce] is a stream of [length] instructions whose [stop],
    {!warm_lines} and, when [marked], release bits a pre-pass has found
    (its producer sets them as it pushes), with empty
    rings of [capacity] uids. [produce b upto] must push instructions
    [Builder.length b .. upto - 1] into [b], whose uids and dependence
    offsets continue across calls: {!refill} calls it. Raises
    [Invalid_argument] unless [capacity] is a power of two above 1, and
    when [length] reaches 2{^29} or its entries overflow the 32-bit
    offsets. *)

val refill : t -> keep:int -> unit
(** [refill t ~keep] lets a stream drop every uid below [keep] and
    produce up to [min (length t) (keep + capacity t - 1)], the most its
    rings hold; uids from [keep] up stay readable. A no-op on a stored
    trace. Raises [Invalid_argument] unless [keep] lies in
    [[lo, produced t]]. *)

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

  val statics : t -> static array
  (** The static table given to the last {!reset}: shared, not copied.
      A replay that builds its own per-static-instruction table from a
      trace's {!Trace.statics} checks that the two are one array. *)

  val sidx : t -> int -> int
  (** Entry [u]'s static index, an index of {!statics}; raises
      [Invalid_argument] outside [0, length). *)

  val value : t -> int -> int
  (** Entry [u]'s address or branch outcome (see above); raises
      [Invalid_argument] outside [0, length). *)

  val reset : t -> static array -> unit
  (** Empties the buffer for a walk over the program with this static
      table (shared, not copied). *)

  val push : t -> int -> len:int -> int -> unit
  (** [push w s ~len v] appends dynamic instances of static indices [s
      .. s + len - 1], the first with value [v] and the rest with 0: one
      instruction, or a straight-line stretch whose instructions after
      the first are neither memory accesses nor conditional branches.
      Raises [Invalid_argument] when [len < 1], when the buffer has no
      room for [len] more entries, or when an index falls outside the
      static table given to {!reset}. *)

  val of_trace : trace -> t
  (** The buffer a walk over the same instructions fills: one entry per
      uid, sized to the trace. The conversion behind the timing core's
      [Core.create ~prewarm]. *)
end

(** {2 Derived tables} *)

val warm_lines : t -> int array
(** Distinct 64-byte instruction-line addresses in first-touch order:
    derived when a stored trace is finished (ordered by each line's
    earliest uid, found in the backward pass that marks its release
    bits), or found by a stream's pre-pass. Repeated timing runs over
    one trace — every point of a design-space sweep — warm their caches
    without walking the event stream, and a stream's core warms them
    before its first instruction exists. *)

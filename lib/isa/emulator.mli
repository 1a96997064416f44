(** Functional (architectural) execution of programs.

    The emulator is the semantic oracle of the repository: it defines what a
    program computes, supplies branch outcomes and memory addresses to the
    timing models, and is the reference against which the braid
    transformation is proven behaviour-preserving.

    Memory is a sparse word-addressed store of 64-bit values; addresses are
    byte addresses and must be 8-byte aligned. Addresses at or above
    [spill_base] are reserved for compiler-inserted spill code and are
    excluded from [memory_image] so that differently-allocated binaries of
    the same source remain comparable. *)

type state

val spill_base : int
(** Start of the spill address region (0x2000_0000; chosen to keep
    zero-register-based spill addressing within the immediate field). *)

type outcome = {
  trace : Trace.t option;  (** present when tracing was requested *)
  stop : Trace.stop_reason;
  dynamic_count : int;
  store_count : int;
  state : state;
}

val run :
  ?max_steps:int ->
  ?trace:bool ->
  ?init_mem:(int * int64) list ->
  Program.t ->
  outcome
(** Executes from the entry block on the compiled engine ({!Compiled}).
    [max_steps] bounds the dynamic instruction count (default 1_000_000).
    When [trace] is true (default), the outcome carries the full dynamic
    trace: the tracer of {!Compiled.trace_window} over the whole run,
    after an untraced run has counted its length, so each column is
    allocated at its exact length and written once, with its release
    bits and first-touch lines derived when it is finished
    ({!Trace.Builder.finish}). The count pass costs
    a few percent of the tracer's time and stays: a variant without it,
    its columns sized at the window bound and cut with views, measured
    slower on served cold runs.
    Arithmetic faults (FP divide by zero) write zero to the destination,
    mark the instruction as [faulting], and continue — the microarchitectural exception-mode cost is
    modeled by the timing simulators, not here. *)

val stream :
  ?max_steps:int ->
  ?init_mem:(int * int64) list ->
  ?release:bool ->
  capacity:int ->
  Program.t ->
  Trace.t
(** The full dynamic trace {!run} would store, as a stream
    ({!Trace.stream}) whose rings hold [capacity] uids: a one-shot
    timing run reads it through a window instead of storing it. A
    pre-pass runs the program to its end first, one straight-line run
    per chain call as {!Compiled.advance_bbv} steps, and finds the
    stream's length, stop reason and first-touch instruction lines
    ({!Trace.warm_lines}). It also finds the release bits
    ({!Trace.no_ext_reader}, {!Trace.dep_last}) without tracing: per
    register slot it keeps the current writer and the read position of
    that writer's latest external read, a position counting every
    register read of every instruction run, which is final once the
    register is overwritten or the run ends. It keeps one bit per
    instruction and one per register read, never an int per uid, and
    knows nothing of how the trace numbers its dependence entries. With
    [release] false (default true) it skips that bookkeeping, and the
    stream's bits stay clear ({!Trace.marked} is false): only a core
    that releases early reads them. A second run then traces into the
    rings on each {!Trace.refill}, keeping its last-writer table and its
    read count across refills, and marks the entry of each read whose
    position the pre-pass set ({!Trace.Builder.mark_last}), so the
    stream is exactly {!run}'s trace, release bits included. Raises
    [Invalid_argument] as {!Trace.stream} does. *)

val reference :
  ?max_steps:int -> ?init_mem:(int * int64) list -> Program.t -> outcome
(** The same execution on the reference interpreter, a separate
    implementation of the semantics that never traces ([trace = None]).
    It exists to be compared against: the differential oracle runs the
    virtual IR on it, and the identity tests hold {!run} to it in every
    architectural observable. *)

val init_state : ?init_mem:(int * int64) list -> unit -> state
(** A fresh architectural state (all registers zero) with the given data
    image stored: the state {!reference} starts from. The differential
    oracle uses it to replay committed instruction streams. *)

val exec_instr : state -> Instr.t -> unit
(** Applies the architectural effect of one instruction to [state] on the
    reference interpreter: register writes (including the [ext_dup]
    duplicate destination) and memory stores. Control flow and [Halt] are
    ignored — the caller owns the instruction sequence. Replaying a core's
    committed stream through this and comparing registers/memory against a
    sequential {!run} is the differential oracle's register-file check. *)

val read_ext : state -> Reg.t -> int64
(** Final architectural register value. Raises on non-external registers. *)

val read_reg : state -> Reg.t -> int64
(** Final value of any register (virtual, external or internal; zero reads
    0). Virtual reads are what the RV frontend's differential oracle
    compares against the reference emulator's architectural registers. *)

val read_mem : state -> int -> int64
(** Final memory word at a byte address (0 if never written). *)

val memory_image : state -> (int * int64) list
(** Sorted (address, value) pairs of all written words below [spill_base]
    with non-zero final values: the canonical observable result of a run. *)

val memory_fingerprint : state -> int64
(** Order-independent-free hash of [memory_image]; equal fingerprints for
    equal images. Used by equivalence property tests. *)

(** Compiled execution: the one engine behind {!run}, the sampler's
    fast-forward and every trace.

    [compile] pre-decodes a program into a flat array of per-instruction
    closures over an unboxed register file, chained by direct tail calls,
    with every control-flow successor resolved to a flat instruction index;
    [advance] then executes without per-instruction decoding, dispatch or
    allocation — byte-identical in all architectural observables
    (registers, memory, dynamic/store counts, stop reason, failure
    messages) to {!reference}. [compile] also builds the tracer's flat
    tables, once per program: each instruction's static trace record
    ({!Trace.static}, shared by every trace of the program), its
    register reads (each packed with its via-internal bit) and writes as
    CSR int arrays — an offset per instruction into one entry array —
    and a row of ints giving its trace kind (plain, load/store, branch
    with its condition as a sign mask, fdiv), operand slot, offset and
    static flag bits (jump taken, braid start). [trace_window] traces by
    single-stepping the same closures and reading only these tables, so
    a traced step decodes no instruction and reads no boxed tuple, and
    [warm_window] walks them the same way into a warm-up buffer without
    building a trace.
    [advance_bbv] additionally accumulates per-basic-block execution
    counts for interval profiling, one chain call per straight-line
    run. *)
module Compiled : sig
  type code
  (** A pre-decoded program; reusable across many runs. *)

  type run
  (** One execution in progress: registers, memory, position, counters. *)

  val compile : Program.t -> code

  val start : ?init_mem:(int * int64) list -> code -> run
  (** A fresh run at the program entry with all registers zero and the
      given data image stored. *)

  val advance : run -> fuel:int -> int
  (** Execute at most [fuel] instructions; returns how many ran (less than
      [fuel] only when the program halts, the halting instruction
      included, as in {!run}). *)

  val advance_bbv : run -> fuel:int -> counts:int array -> int
  (** [advance], additionally incrementing [counts.(b)] for every
      instruction executed in block [b]. [counts] must have at least
      {!num_blocks} entries. [compile] records, per instruction, how many
      run straight from it (through the first branch, jump or halt, or to
      the end of its block); each such run executes as one chain call
      whose executed count is added to its block. *)

  val trace_window : run -> max_steps:int -> Trace.t
  (** Run up to [max_steps] instructions from the current position,
      advancing the run and appending each instruction to the trace's
      columns, which are sized for [max_steps] (up to 2{^20}) up front
      and grow past that.
      The window is a self-contained trace: uids restart at 0 and
      dependences on pre-window producers are dropped (a timing model fed
      only the window sees exactly this), and a window opening mid-braid
      has its first instruction promoted to a braid start. Its [stop] is
      [Halted] iff the program has ended. *)

  val warm_window : run -> Trace.Warm.t -> max_steps:int -> unit
  (** [warm_window run w ~max_steps] empties [w] and runs up to
      [max_steps] instructions from the current position exactly as
      {!trace_window} does (a run parked on a trap slot raises its
      failure, and the walk stops after a [Halt]), appending each one's
      static index and its address or branch outcome to [w]. It builds
      no trace and, into a buffer allocated once, allocates nothing per
      instruction: the sampler's functional warm-up. [w] then equals
      [Trace.Warm.of_trace] of the window [trace_window] would have
      returned over the same span. Raises [Invalid_argument] when
      [max_steps] exceeds [w]'s capacity.

      The walk steps by segments: [compile] records, per instruction,
      how many of the instructions after it in its straight-line run
      (see {!advance_bbv}) are plain, neither a memory access, a
      conditional branch nor an fdiv. A segment's first instruction has
      its address or outcome read from the registers, and then the
      whole segment, capped at the steps left, runs as one chain call
      (a [Halt] ends its run, so it ends its segment too). The tracer
      ({!trace_window}) still single-steps: its cost is the per-entry
      work of building the trace (dependences, flags), which a longer
      chain call does not remove, and segmenting it measured no
      gain. *)

  val halted : run -> bool
  val steps : run -> int
  (** Dynamic instructions executed so far (including a final [Halt]). *)

  val store_count : run -> int
  val num_blocks : code -> int

  val state : run -> state
  (** Architectural view of the run: registers are copied out, memory is
      shared by reference with the live run. *)

  type snapshot

  val snapshot : run -> snapshot
  (** Deep copy of the full architectural state plus position/counters. *)

  val restore : run -> snapshot -> unit
  (** Rewind the run to a snapshot taken from the same [start]. *)
end

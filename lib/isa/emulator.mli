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
(** Executes from the entry block. [max_steps] bounds the dynamic
    instruction count (default 1_000_000). When [trace] is true (default),
    the outcome carries the full dynamic trace. Arithmetic faults
    (FP divide by zero) write zero to the destination, mark the event as
    [faulting], and continue — the microarchitectural exception-mode cost is
    modeled by the timing simulators, not here. *)

val init_state : ?init_mem:(int * int64) list -> unit -> state
(** A fresh architectural state (all registers zero) with the given data
    image stored. This is the state [run] starts from; the differential
    oracle uses it to replay committed instruction streams. *)

val exec_instr : state -> Instr.t -> unit
(** Applies the architectural effect of one instruction to [state]:
    register writes (including the [ext_dup] duplicate destination) and
    memory stores. Control flow and [Halt] are ignored — the caller owns
    the instruction sequence. Replaying a core's committed stream through
    this and comparing registers/memory against a sequential {!run} is the
    differential oracle's register-file check. *)

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

(** Compiled fast-forward execution.

    [compile] pre-decodes a program into a flat array of per-instruction
    closures over an unboxed register file, resolving every control-flow
    successor to a flat instruction index; [advance] then executes without
    per-instruction decoding, dispatch or allocation — byte-identical in
    all architectural observables (registers, memory, dynamic/store counts,
    stop reason, failure messages) to the interpreted {!run}, at an order
    of magnitude higher instruction throughput. This is the fast-forward
    engine of sampled simulation: [advance_bbv] additionally accumulates
    per-basic-block execution counts for interval profiling, and
    [trace_window] hands control to the interpreter's tracer for a bounded
    window starting at the run's current position (sharing its state), so
    a measured window carries exactly the events a full trace would. *)
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
      {!num_blocks} entries. *)

  val trace_window : run -> max_steps:int -> Trace.t
  (** Run up to [max_steps] instructions through the interpreter's tracer
      from the current position, advancing the run. The window is a
      self-contained trace: event uids restart at 0 and dependences on
      pre-window producers are dropped (a timing model fed only the window
      sees exactly this). Its [stop] is [Halted] iff the program ended
      inside the window. *)

  val halted : run -> bool
  val steps : run -> int
  (** Dynamic instructions executed so far (including a final [Halt]). *)

  val store_count : run -> int
  val num_blocks : code -> int
  val program : code -> Program.t

  val state : run -> state
  (** Architectural view of the run: registers are copied out, memory is
      shared by reference with the live run. *)

  type snapshot

  val snapshot : run -> snapshot
  (** Deep copy of the full architectural state plus position/counters. *)

  val restore : run -> snapshot -> unit
  (** Rewind the run to a snapshot taken from the same [start]. *)

  val execute :
    ?max_steps:int -> ?init_mem:(int * int64) list -> Program.t -> outcome
  (** Whole-program compiled run; the outcome (with [trace = None]) is
      byte-identical to [run ~trace:false] in every observable. *)
end

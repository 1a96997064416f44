(** Dynamic instruction traces.

    The timing simulators are execution-driven: the emulator runs the
    program for real and emits one [event] per retired instruction, with
    true register data dependences already resolved to producer uids
    (register renaming makes false dependences irrelevant to timing; memory
    dependences are resolved by the LSQ model from the recorded
    addresses). *)

type event = {
  uid : int;  (** dense dynamic index, starting at 0 *)
  pc : int;  (** byte address of the static instruction *)
  block_id : int;
  offset : int;  (** position within the block *)
  instr : Instr.t;
  deps : (int * bool) array;
      (** register value producers (RAW): [(uid, via_internal)], where
          [via_internal] marks values flowing through a braid-internal
          register (same BEU, never on the bypass network or external
          register file) *)
  addr : int;  (** byte address for loads/stores, -1 otherwise *)
  is_load : bool;
  is_store : bool;
  is_cond_branch : bool;
  is_jump : bool;
  taken : bool;  (** conditional branches: outcome; jumps: true *)
  next_pc : int;  (** address of the next dynamic instruction *)
  latency : int;  (** FU latency, memory time excluded *)
  writes_ext : bool;  (** allocates an external register / rename entry *)
  writes_int : bool;  (** writes a braid-internal register *)
  ext_src_reads : int;  (** external register file reads requested *)
  int_src_reads : int;
  braid_id : int;
  braid_start : bool;
  faulting : bool;  (** arithmetic fault occurred (exception-mode trigger) *)
}

type stop_reason = Halted | Steps_exhausted

(** Static, trace-derived dependence tables, shared by every timing run
    over one trace (all arrays are read-only for consumers). *)
type dep_tables = {
  dep_count : int array;  (** register producers per uid *)
  child_off : int array;
      (** CSR offsets: the consumers of producer [p] are
          [child_uid.(child_off.(p)) .. child_uid.(child_off.(p+1)-1)] *)
  child_uid : int array;
  child_via : Bytes.t;  (** ['\001'] = braid-internal register edge *)
  last_ext_reader : int array;
      (** highest consumer uid reading the value externally, -1 = none *)
  conflict_store : int array;
      (** for a load: uid of the youngest older store to the same
          address, -1 = none (LSQ disambiguation is static in a trace) *)
}

type t = {
  events : event array;
  stop : stop_reason;
  program : Program.t;
  mutable warm_lines : int array option;
      (** memoised {!warm_lines} result; construct with [None] *)
  mutable tables : dep_tables option;
      (** memoised {!dep_tables} result; construct with [None] *)
}

val length : t -> int

val warm_lines : t -> int array
(** Distinct 64-byte instruction-line addresses in first-touch order,
    computed once and memoised (the trace is immutable): repeated timing
    runs over one trace — every point of a design-space sweep — warm
    their caches without re-deduplicating the event stream. *)

val dep_tables : t -> dep_tables
(** The static dependence structure of the trace, computed once and
    memoised. Timing models treat every array as read-only, so repeated
    runs (the points of a sweep) share one copy instead of rebuilding the
    CSR graph and disambiguation table per run. *)

val num_branches : t -> int
(** Conditional branches only. *)

val branch_of : event -> bool
(** [is_cond_branch || is_jump]. *)

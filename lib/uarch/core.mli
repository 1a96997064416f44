(** One core's whole pipeline as a stepable value.

    {!create} builds the machine (over a private or a caller-supplied
    shared memory hierarchy) and warms its caches; {!step} advances
    exactly one cycle — fetch (I-cache + branch prediction), dispatch
    (allocate/rename budgets, register availability, LSQ), the execution
    core ({!Exec_core}), in-order commit; {!result} and {!counters} read a
    finished run. {!run} is [create] followed by stepping until
    {!finished}. A CMP ({!Braid_cmp.Cmp}) interleaves [step]s of many
    cores under one global clock, each over a hierarchy attached to a
    shared backside ({!Mem_hier}).

    Branch handling: direction predictions are made at fetch against the
    trace's real outcomes; a misprediction stops instruction supply until
    the branch executes, plus the configured minimum penalty — wrong-path
    work is modeled as this bubble. Arithmetic faults serialize the
    pipeline (drain to the checkpoint, handle, resume), per §3.4. *)

type stalls = {
  fetch_redirect : int;  (** cycles fetch waited on a mispredicted branch *)
  fetch_icache : int;  (** cycles fetch waited on an I-cache fill *)
  dispatch_core : int;  (** cycles the execution core refused dispatch *)
  dispatch_frontend : int;  (** cycles a front-end resource refused it *)
}

type result = {
  config_name : string;
  instructions : int;
  cycles : int;
  ipc : float;
  branch_lookups : int;
  branch_mispredicts : int;
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  dispatch_stall_regs : int;
  faults : int;
  activity : Machine.activity;  (** structure-access counts (§5.1) *)
  stalls : stalls;
  avg_occupancy : float;  (** mean instructions resident in the core *)
}

val counts : result -> int array
(** The result's 16 integer counters — the seven scalars from
    [branch_lookups] to [faults], then [activity] and [stalls] — in field
    order. [instructions], [cycles] and the float fields are not among
    them. This and {!with_counts} are the one place the counters are
    listed: a [measure_from] window subtracts the vector, and a sampled
    run ({!Braid_sample.Driver}) extrapolates it entry by entry, so a new
    counter is one record field plus one entry in each. *)

val with_counts : result -> int array -> result
(** [with_counts r c] is [r] with its counters replaced by [c], given in
    {!counts}' order; every other field is [r]'s. *)

exception Deadlock of string
(** Raised by {!step} when nothing has committed for [4 * memory_latency
    + 4096] cycles and nothing is left scheduled ({!Machine.scheduled}),
    or when the run outlasts an absolute bound of [200 * length + 100000]
    cycles — a simulator bug, surfaced loudly rather than silently
    looping. *)

type t

val min_window : Config.t -> int
(** The smallest {!Trace.capacity} a stream run on this config may
    have: the least power of two above [fetch_buffer + inflight +
    fetch_width] (512 at the presets). A stream keeps one uid fewer than
    its capacity, and between refills fetch reads up to one fetch group
    past the oldest uncommitted instruction's in-flight window and fetch
    buffer. *)

val create :
  ?probe:Probe.t ->
  ?warm_data:int list ->
  ?warm:Trace.Warm.t ->
  ?prewarm:Trace.t ->
  ?measure_from:int ->
  ?hier:Mem_hier.hierarchy ->
  Config.t ->
  Trace.t ->
  t
(** [probe] attaches an event tracer, the commit recorder and the
    microarchitectural invariant monitor ({!Probe.create}); the default
    {!Probe.off} costs one pattern match per hook, and any probe leaves
    every result byte-identical.

    [warm_data] lists byte addresses of the program's initial data image;
    their lines are pre-filled into the L2 (and all code lines into
    L1I/L2) so the measured window behaves like a steady-state snapshot
    rather than a cold start.

    [warm] is a sampled-simulation functional warm-up
    ({!Emulator.Compiled.warm_window}): after the code lines and
    [warm_data] above, each entry in order touches its code line in
    L1I/L2 (once per run of entries on one 64-byte line), a load or
    store's data line in L1D/L2 ({!Mem_hier.warm_data}), and a
    conditional branch's outcome into the predictor ({!Predictor.warm}),
    without touching any statistics or time. The replay reads each
    entry's pc and its load, store and conditional-branch bits from the
    machine's decoded word of its static index ({!Machine.static_word}),
    a table built from the trace's statics, so the buffer must come from
    the same compiled code as the trace: a walk and a window of one
    [Compiled.code], as the sampler takes them. A buffer whose
    {!Trace.Warm.statics} is not physically the trace's {!Trace.statics}
    raises [Invalid_argument].

    [prewarm] is the same warm-up given as a trace window of the same
    compiled code: it is converted with {!Trace.Warm.of_trace} and
    replayed by the same rule,
    so a caller that warms from [Compiled.trace_window] gets exactly the
    state the walk gives. It stays for callers that still hold such a
    window (an outside replay that must match the sampler bit for bit);
    the sampler itself never builds one. Passing both [warm] and
    [prewarm] raises [Invalid_argument].

    [measure_from] is detailed warm-up for sampled simulation: the whole
    trace is simulated, but the result reports only the suffix starting
    at that uid. The core snapshots the whole run's result (and its
    occupancy sum) the cycle the last warm-up instruction commits, and
    reports the whole run minus that snapshot: [instructions] is the
    suffix length, [cycles] and every {!counts} entry are differences,
    and [ipc] and [avg_occupancy] are recomputed over the suffix.
    [measure_from] 0 reports the plain run. Commit-to-commit deltas
    telescope to the full run's cycle count over contiguous intervals, so
    windowed measurement carries no systematic pipeline-fill or drain
    bias, and the suffix executes under real pipeline, cache, predictor
    and register-lifetime state.

    [hier] is the memory hierarchy this core loads, stores and fetches
    through. Absent, a private one is built from the config (solo
    semantics); a CMP passes a hierarchy attached to a shared backside.
    Creation warms the trace's code lines and [warm_data] into the
    hierarchy.

    The trace may be a stream ({!Trace.stream}): fetch refills it
    ({!Trace.refill}) whenever it reaches the stream's frontier, keeping
    every uncommitted instruction, and no stage reads a committed
    instruction's trace entry (the machine keeps what it needs in the
    instruction's slot). Raises [Invalid_argument] on an empty trace, a
    stream whose capacity is under {!min_window}, or a [measure_from]
    outside [0, length). *)

val step : t -> unit
(** Advance one cycle. Call only while [not (finished t)]. *)

val run :
  ?probe:Probe.t ->
  ?warm_data:int list ->
  ?warm:Trace.Warm.t ->
  ?prewarm:Trace.t ->
  ?measure_from:int ->
  Config.t ->
  Trace.t ->
  t
(** A solo core ({!create} over a private hierarchy), stepped until
    {!finished}; [result (run ...)] is the whole run's result. *)

val finished : t -> bool
(** Every instruction of the trace has committed. *)

val result : t -> result
(** Counters of the finished run; raises [Invalid_argument] while
    [not (finished t)]. *)

type counter =
  | Count of int
  | Hist of { bounds : int array; counts : int array; observations : int; sum : int }
      (** [counts] has one entry per inclusive upper bound in [bounds],
          plus an overflow bucket; [observations] is their sum. *)

val counters : t -> (string * counter) list
(** The finished run's counter dump, read off the state the simulator
    keeps anyway — cache, predictor, machine and front-end statistics —
    over the whole run, [measure_from] prefix included: ["l2.*"] (private
    hierarchies only; a CMP lists its shared L2 once), ["l1d.*"],
    ["l1i.*"], ["bypass.*"], ["extfile.*"], per-stage instruction flow,
    ["predictor.*"], dispatch refusals, ["stall.*"] and the per-cycle
    ["core.occupancy"] histogram. Raises [Invalid_argument] while
    [not (finished t)]. *)

val speedup : result -> result -> float
(** [speedup base other] = cycles(base) / cycles(other). *)

(** The full pipeline: fetch (I-cache + branch prediction), dispatch
    (allocate/rename budgets, register availability, LSQ), the execution
    core, and in-order commit — driven cycle by cycle over an
    execution-derived trace.

    Branch handling: direction predictions are made at fetch against the
    trace's real outcomes; a misprediction stops instruction supply until
    the branch executes, plus the configured minimum penalty — wrong-path
    work is modeled as this bubble. Arithmetic faults serialize the
    pipeline (drain to the checkpoint, handle, resume), per §3.4. *)

type stalls = Core.stalls = {
  fetch_redirect : int;  (** cycles fetch waited on a mispredicted branch *)
  fetch_icache : int;  (** cycles fetch waited on an I-cache fill *)
  dispatch_core : int;  (** cycles the execution core refused dispatch *)
  dispatch_frontend : int;  (** cycles a front-end resource refused it *)
}

type result = Core.result = {
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

exception Deadlock of string
(** The same exception as {!Core.Deadlock} (rebound, not redeclared).
    Raised when no forward progress happens for an implausibly long time —
    a simulator bug, surfaced loudly rather than silently looping. *)

val run :
  ?probe:Probe.t ->
  ?warm_data:int list ->
  ?prewarm:Trace.t ->
  ?measure_from:int ->
  Config.t ->
  Trace.t ->
  result
(** [probe] attaches an event tracer, the commit recorder and the
    microarchitectural invariant monitor ({!Probe.create}); the default
    {!Probe.off} costs one pattern match per hook, and any probe leaves
    every result byte-identical.

    [warm_data] lists byte addresses of the program's initial data image;
    their lines are pre-filled into the L2 (and all code lines into
    L1I/L2) so the measured window behaves like a steady-state snapshot
    rather than a cold start.

    [prewarm] is a sampled-simulation warm-up window: its events are
    replayed into the caches (code and data lines) and the branch
    predictor before timing starts, without touching any statistics.
    Absent (the default), results are byte-identical to before the
    parameter existed.

    [measure_from] is detailed warm-up for sampled simulation: the whole
    trace is simulated, but the result reports only the suffix starting
    at that uid — [instructions] is the suffix length and [cycles] and
    every counter subtract their values at the cycle the last warm-up
    instruction committed. Commit-to-commit deltas telescope to the full
    run's cycle count over contiguous intervals, so windowed measurement
    carries no systematic pipeline-fill or drain bias, and the suffix
    executes under real pipeline, cache, predictor and register-lifetime
    state. Raises [Invalid_argument] (from {!Core.create}) when outside
    [0, length).

    [run] is [Core.result (Core.run ...)]; for the run's counter dump,
    call {!Core.run} and read {!Core.counters}. *)

val speedup : result -> result -> float
(** [speedup base other] = cycles(base) / cycles(other): how much faster
    [other] finishes the same program. *)

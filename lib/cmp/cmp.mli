(** Multi-programmed (rate-mode) CMP over a shared, coherent L2.

    N identical cores — each a full {!Braid_uarch.Core} pipeline running
    its own program over private L1s — share one L2 behind the MSI
    directory of {!Braid_uarch.Mem_hier}. One global clock steps every
    unfinished core once per cycle (core 0 first, so runs are
    deterministic); a core that commits its whole trace goes quiet while
    the rest keep contending for the shared L2.

    Metrics follow the rate-mode convention: each core's IPC is taken at
    its {e own} finish cycle; [aggregate_ipc] sums them (throughput);
    [weighted_speedup] is the mean of per-core [IPC_cmp / IPC_solo] —
    1.0 means the shared hierarchy cost nothing, lower means
    interference. *)

type workload = {
  w_bench : string;  (** label only *)
  w_trace : Braid_isa.Trace.t;
  w_warm_data : int list;  (** initial data image (see {!Braid_uarch.Core.create}) *)
}

type core_result = {
  core_id : int;
  bench : string;
  result : Braid_uarch.Core.result;
      (** per-core counters, at this core's own finish cycle *)
  counters : (string * Braid_uarch.Core.counter) list;
      (** this core's counter dump ({!Braid_uarch.Core.counters}) *)
  solo_cycles : int;  (** same workload, same config, private hierarchy *)
  slowdown : float;  (** cycles / solo_cycles; 1.0 = no interference *)
}

type t = {
  cores : core_result list;  (** in core order *)
  cycles : int;  (** global cycles until the last core finished *)
  instructions : int;  (** summed over cores *)
  aggregate_ipc : float;  (** sum of per-core IPCs (rate metric) *)
  weighted_speedup : float;  (** (1/N) × sum of IPC_cmp / IPC_solo *)
  l2_hits : int;  (** shared L2 *)
  l2_misses : int;
  coherence : Braid_uarch.Mem_hier.coh_stats;
  violations : string list;
      (** directory-legality scan after the run; must be empty *)
}

val run :
  ?probes:Braid_uarch.Probe.t array ->
  solo_cycles:int array ->
  cfg:Braid_uarch.Config.t ->
  cmp:Braid_uarch.Config.Cmp.t ->
  workload array ->
  t
(** [run ~cfg ~cmp workloads] needs exactly [cmp.cores] workloads (the
    caller resolves [cmp.workloads] names to traces, round-robin —
    {!Braid_uarch.Config.Cmp.workload_of}).

    [solo_cycles] gives each core's solo baseline, the slowdown
    denominator: the cycles of the same workload on the same config over a
    private hierarchy. {!Cmp_bench.run} takes them from the memoised
    {!Braid_sim.Suite.run}, so no solo run is simulated twice. A 1-core
    run over the solo L2 geometry is cycle-identical to a solo [Core.run]
    — the passthrough proof the golden suite pins.

    [probes] attaches one probe per core (commit-stream recording and
    invariant checks for the differential fuzzer).

    Raises [Invalid_argument] on a workload/core count mismatch or
    mis-sized [probes]/[solo_cycles]. *)

val counters : t -> (string * Braid_uarch.Core.counter) list
(** The CMP's counter dump: the shared backside's ["coh.*"] and ["l2.*"]
    unprefixed, then each core's dump namespaced ["core<i>."]. *)

(** Execution of a sweep grid: every (configuration point × benchmark)
    job fans out across the {!Braid_sim.Runner} domain pool, consulting
    (and filling) an optional on-disk {!Cache} so repeated or resumed
    sweeps skip simulation entirely. Results are deterministic and
    independent of [jobs]. *)

type run = {
  bench : string;
  cycles : int;
  instructions : int;
  ipc : float;
      (** recomputed from cached integers, so cached and fresh results
          are bit-identical. Solo: instructions / cycles. CMP points
          (cores pseudo-axis > 1): the rate-mode aggregate — each core's
          IPC at its own finish cycle, summed. *)
  from_cache : bool;
  cmp : Cache.cmp_extra option;
      (** per-core cycles/instructions, solo baselines and coherence
          traffic of a CMP run; [None] on solo points *)
}

type point_result = {
  point : Grid.point;
  digest : string;  (** {!Braid_uarch.Config.digest} of the point *)
  complexity : float;
      (** {!Braid_uarch.Complexity} total static index of the point,
          multiplied by its core count: the Pareto trade-off is
          throughput vs total silicon *)
  mean_ipc : float;  (** plain mean over the swept benchmarks *)
  runs : run list;  (** one per benchmark, in the order given *)
}

type stats = {
  simulated : int;  (** jobs that ran a simulation *)
  cache_hits : int;  (** jobs answered from the on-disk {!Cache} *)
}
(** One sweep's totals: [simulated + cache_hits] is its {!job_count}. A
    warm re-run over the same cache directory simulates nothing; a daemon
    adds each served sweep's totals to its [status]. *)

type outcome = { results : point_result list; stats : stats }

val ext_usable_of : Braid_uarch.Config.t -> int
(** Compile-time external register budget a sweep job compiles with:
    [min ext_regs usable_per_class] on a braid core (the hardware cannot
    hold more — Fig 6's methodology), the full budget otherwise. *)

val job_count : benches:'a list -> 'b list -> int
(** Number of (point × benchmark) jobs {!run} will fan out — the progress
    total for an [on_done] stream. *)

val run :
  ?cache:Cache.t ->
  ?on_done:(int -> string -> unit) ->
  ctx:Braid_sim.Suite.ctx ->
  jobs:int ->
  seed:int ->
  scale:int ->
  benches:Braid_workload.Spec.profile list ->
  Grid.point list ->
  outcome
(** [on_done] streams per-job completion exactly as
    {!Braid_sim.Runner.try_map_jobs} does (worker-domain context: the
    callback must be domain-safe). The outcome's [stats] count the jobs
    that simulated and the jobs the cache answered. *)

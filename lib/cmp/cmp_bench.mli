(** Benchmark-suite plumbing for CMP runs: resolve the workload names of a
    {!Braid_uarch.Config.Cmp.t} to prepared traces through a
    {!Braid_sim.Suite.ctx}, so one-shot and served executions share the
    same memoised preparations (and hence produce identical bytes). *)

val run :
  ?ext_usable:int ->
  Braid_sim.Suite.ctx ->
  seed:int ->
  scale:int ->
  cfg:Braid_uarch.Config.t ->
  Braid_uarch.Config.Cmp.t ->
  Cmp.t
(** {!Cmp.run} over one workload per core, round-robin over
    [cmp.workloads] ({!Braid_uarch.Config.Cmp.workload_of}); each trace is
    {!Braid_sim.Suite.trace}, the one the core kind runs, and each core's
    solo baseline is {!Braid_sim.Suite.run} on the same preparation, so
    the ctx memoises it like any other run. [ctx] must simulate in full
    (no sampling spec): a sampled estimate is no cycle-exact baseline.
    Fully deterministic for fixed (seed, scale, cfg, cmp, ext_usable).

    [ext_usable] is the compile-time external-register budget and
    defaults to {!Braid_core.Extalloc.usable_per_class} — the
    {!Braid_sim.Suite.prepare} default, i.e. the exact binaries
    [braidsim run] times, which is what makes a 1-core CMP reproduce the
    golden numbers. A sweep passes its per-point budget
    ({!Braid_dse.Sweep.ext_usable_of}) instead, so the cores axis
    compares like binaries with its solo points.

    Raises [Invalid_argument] on an unknown benchmark name — validate
    names first where a typed error is wanted. *)

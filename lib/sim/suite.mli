(** Prepared benchmarks: generated program, both compiled binaries
    (conventional and braid), and their execution traces — memoised in an
    explicit {!ctx}, since every experiment sweeps the same 26 programs.

    A [ctx] is safe to share across domains: lookups and insertions are
    mutex-guarded, and a cache miss runs the (deterministic) computation
    outside the lock so simulations overlap. Two domains racing on the same
    key may duplicate work, but every caller observes one canonical value.

    Every front end simulates a benchmark through {!run} or {!sample}.
    Their memo keys are content: the preparation's [key] plus
    the configuration's {!Braid_uarch.Config.digest} (and the sampling
    spec's digest), so a configuration's name is only a label.

    A ctx optionally carries a sampling spec: {!run} on a sampling ctx
    returns SimPoint-style sampled results extrapolated to full-run shape
    instead of simulating every instruction, and full traces are never
    materialised unless something forces them.

    [scale] targets the dynamic trace length (the MinneSPEC-style reduced
    run); [ext_usable] recompiles the braid binary with a restricted
    external register budget (Fig 6); [max_internal] varies the braid
    working-set bound (splitting-threshold ablation). *)

type prepared = {
  profile : Braid_workload.Spec.profile;
  init_mem : (int * int64) list;
  warm_data : int list;  (** addresses of the initial data image *)
  virtual_ir : Program.t;
  conventional : Braid_core.Extalloc.result;
  braid : Braid_core.Transform.report;
  scale : int;  (** the dynamic-length target this was prepared at *)
  key : string;
      (** memoisation key of this preparation: benchmark, seed, scale,
          [max_internal] and [ext_usable] *)
  conv_trace : unit -> Trace.t;
      (** full execution trace of the conventional binary; computed on
          first call, memoised in the ctx (thread-safe). Sampled runs
          never force it. *)
  braid_trace : unit -> Trace.t;  (** likewise for the braid binary *)
}

type ctx
(** Memoisation context: prepared benchmarks plus simulation results.
    Create one per experiment batch and thread it through explicitly —
    there is no global mutable cache. *)

val create_ctx : ?sample:Braid_sample.Spec.t -> unit -> ctx
(** With [sample], every {!run} call on this ctx uses sampled simulation
    with that spec. *)

val sampling : ctx -> Braid_sample.Spec.t option

val default_scale : int
(** 12_000: the trace length every front end defaults [--scale] to. *)

val prepare :
  ctx ->
  ?seed:int ->
  ?scale:int ->
  ?max_internal:int ->
  ?ext_usable:int ->
  Braid_workload.Spec.profile ->
  prepared
(** Memoised on all parameters. *)

val trace : prepared -> Braid_uarch.Config.t -> Trace.t
(** The trace of the binary [cfg.kind] runs
    ({!Braid_uarch.Config.Core_kind.braid_binary}): [braid_trace] on a
    braid or cgooo core, [conv_trace] otherwise. *)

val run :
  ctx -> prepared -> Braid_uarch.Config.t -> Braid_uarch.Core.result
(** Simulates [cfg] on {!trace}[ p cfg]. Memoised on [p.key] plus
    {!Braid_uarch.Config.digest}[ cfg]: the key is what is simulated, so
    two configurations with equal parameters share one simulation
    whatever they are called, and the result always carries the caller's
    [cfg.name] as its [config_name]. On a sampling ctx this is the
    sampled estimate's extrapolated result ({!sample}). *)

val run_braid :
  ctx -> prepared -> Braid_uarch.Config.t -> Braid_uarch.Core.result
(** {!run} under the name the end-to-end benchmark ([perfbench/]) calls
    it by; it picks the binary from [cfg.kind] like {!run}. *)

val sample :
  ctx ->
  prepared ->
  spec:Braid_sample.Spec.t ->
  Braid_uarch.Config.t ->
  Braid_sample.Driver.t
(** Sampled simulation of the binary [cfg.kind] runs, with full detail
    (representatives, weights, per-interval IPCs) regardless of the ctx's
    own sampling mode. Memoised on {!run}'s key plus
    {!Braid_sample.Spec.digest}[ spec], and renamed to [cfg.name] like
    {!run}. The core-independent plan is memoised once per (preparation,
    binary, spec) and serves every configuration. *)

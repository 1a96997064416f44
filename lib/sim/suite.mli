(** Prepared benchmarks: generated program, both compiled binaries
    (conventional and braid), and their execution traces — memoised in an
    explicit {!ctx}, since every experiment sweeps the same 26 programs.

    A [ctx] is safe to share across domains: lookups and insertions are
    mutex-guarded, and a cache miss runs the (deterministic) computation
    outside the lock so simulations overlap. Two domains racing on the same
    key may duplicate work, but every caller observes one canonical value.

    A ctx optionally carries a sampling spec: {!run_conv} / {!run_braid}
    on a sampling ctx return SimPoint-style sampled results extrapolated
    to full-run shape instead of simulating every instruction, and full
    traces are never materialised unless something forces them.

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
  key : string;  (** memoisation key of this preparation *)
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
(** With [sample], every {!run_conv} / {!run_braid} call on this ctx uses
    sampled simulation with that spec. *)

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

val run_conv :
  ctx -> prepared -> Braid_uarch.Config.t -> Braid_uarch.Core.result
(** Runs the conventional binary's trace (in-order / dep-steer / OoO
    machines). Memoised on the configuration name, so configuration
    variants must carry distinct names. On a sampling ctx this is the
    sampled estimate's extrapolated result ({!Braid_sample.Driver.t}). *)

val run_braid :
  ctx -> prepared -> Braid_uarch.Config.t -> Braid_uarch.Core.result
(** Runs the braid binary's trace (braid machines). Memoised likewise. *)

val sample_conv :
  ctx ->
  prepared ->
  spec:Braid_sample.Spec.t ->
  Braid_uarch.Config.t ->
  Braid_sample.Driver.t
(** Sampled simulation of the conventional binary with full detail
    (representatives, weights, per-interval IPCs) regardless of the ctx's
    own sampling mode. The core-independent plan and the per-core
    measurement are both memoised. *)

val sample_braid :
  ctx ->
  prepared ->
  spec:Braid_sample.Spec.t ->
  Braid_uarch.Config.t ->
  Braid_sample.Driver.t
(** Likewise for the braid binary. *)

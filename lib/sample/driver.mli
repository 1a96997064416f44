(** The sampled cycle-level driver: fast-forward, profile, cluster, then
    simulate only representative intervals and extrapolate.

    The core-independent half ({!plan}) is computed once per (program,
    image, spec); the core-dependent half ({!measure}) runs once per
    configuration. Both are deterministic for fixed inputs. *)

type plan

type rep = {
  interval_index : int;
  start : int;  (** dynamic instruction index where the interval begins *)
  length : int;
  weight : float;  (** fraction of all executed instructions it stands for *)
  ipc : float;  (** measured on this interval alone *)
}

type t = {
  spec : Spec.t;
  total_instrs : int;  (** full-run dynamic instruction count *)
  num_intervals : int;
  reps : rep list;
  ipc : float;  (** weighted-CPI estimate of the full run's IPC *)
  result : Braid_uarch.Core.result;
      (** the estimate extrapolated to a full-run result: [instructions]
          is the true dynamic count, [cycles] follows from the weighted
          CPI, and every counter is a weighted per-instruction rate
          scaled to the whole run — consumers of full results need not
          distinguish. *)
}

val plan :
  ?init_mem:(int * int64) list ->
  ?max_steps:int ->
  spec:Spec.t ->
  Emulator.Compiled.code ->
  plan
(** One compiled fast-forward pass: BBV profile ({!Bbv.profile}'s
    [max_steps] default applies), k-means clustering, representative
    selection with instruction-mass weights. Raises [Invalid_argument]
    if the program executes no instructions. *)

val measure :
  ?warm_data:int list -> plan -> Braid_uarch.Config.t -> t
(** Fast-forward to each representative; replay a bounded functional
    warm-up (the preceding ~64k instructions) into caches and predictor
    via [Core.run ~prewarm]; simulate the spec's detailed warm-up
    plus the interval and report only the interval's commit-to-commit
    suffix ([Core.run ~measure_from]); aggregate by weighted CPI.
    [warm_data] is passed through to every interval's pipeline run. *)

val error_vs : full:Braid_uarch.Core.result -> t -> float
(** Relative IPC error against a full simulation of the same program:
    [|sampled - full| / full]. *)

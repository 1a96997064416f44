(** The typed request vocabulary of the [braidsim-api/1] protocol: one
    variant per served capability. The one-shot CLI, the [braidsim client]
    subcommand and the daemon dispatcher all build and consume this type,
    so one-shot and served execution are the same computation by
    construction.

    The JSON wire form is one object per request:
    [{"schema":"braidsim-api/1","op":"run",...}]. [of_json] rejects a
    missing or foreign schema version before looking at anything else —
    the version-policy contract documented in docs/TUTORIAL.md. *)

module Config = Braid_uarch.Config

val schema : string
(** ["braidsim-api/1"]. The version suffix bumps on any incompatible
    change to the request or response vocabulary. *)

type sample = {
  sm_interval : int;  (** {!Braid_sample.Spec.interval} *)
  sm_max_k : int;
  sm_warmup : int;
  sm_seed : int;
  sm_verify : bool;
      (** [run] only: also run the full simulation and report the sampled
          IPC's relative error against it; ignored by [experiment] and
          [sweep] *)
}
(** Sampled-simulation settings, mirroring {!Braid_sample.Spec.t}. Carried
    as an optional ["sample"] object on [run], [experiment] and [sweep];
    absent means full simulation, so pre-sampling documents keep their
    exact wire form and meaning (no schema bump). *)

type run = {
  r_bench : string;
  r_seed : int;
  r_scale : int;
  r_core : Config.core_kind;
  r_width : int;
  r_sample : sample option;
}

type experiment = {
  e_ids : string list;  (** empty: every experiment *)
  e_scale : int;
  e_jobs : int;  (** requested parallelism; a server may cap it *)
  e_counters : bool;
  e_sample : sample option;
}

type sweep = {
  s_preset : Config.core_kind;
  s_axes : string list;  (** {!Braid_dse.Axis.of_spec} forms *)
  s_mode : Braid_dse.Grid.mode;
  s_benches : string list;  (** empty: all 26 *)
  s_seed : int;
  s_scale : int;
  s_jobs : int;
  s_cache_dir : string option;  (** resolved on the server's filesystem *)
  s_sample : sample option;
}

type trace = {
  t_bench : string;
  t_seed : int;
  t_scale : int;
  t_core : Config.core_kind;
  t_width : int;
  t_from : int;
  t_cycles : int;
  t_buffer : int;
  t_chrome : bool;  (** also return the Chrome trace_event document *)
  t_counters : bool;
}

type fuzz = {
  f_count : int;
  f_seed : int;
  f_index : int;
  f_cores : Config.core_kind list;  (** empty: every core kind *)
  f_invariants : bool;
  f_shrink : bool;
}

type rv = {
  v_hex : string;
      (** the image in {!Braid_rv.Image.to_hex} form — text-safe on the
          wire, and identical for a fixture no matter which side
          assembled it *)
  v_cores : Config.core_kind list;  (** empty: every core kind *)
  v_oracle : bool;  (** also run the frontend differential oracle *)
}

type cmp = {
  c_benches : string list;
      (** assigned to cores round-robin
          ({!Braid_uarch.Config.Cmp.workload_of}); must be non-empty *)
  c_cores : int;  (** 1-64 *)
  c_seed : int;
  c_scale : int;
  c_core : Config.core_kind;  (** every core runs this machine *)
  c_width : int;
  c_l2 : Config.cache_geometry option;
      (** shared L2 geometry; [None]: the solo L2 with capacity scaled by
          the core count ({!Braid_uarch.Config.Cmp.default_l2}) *)
  c_counters : bool;  (** also return the namespaced counter dump *)
}

type t =
  | Run of run
  | Experiment of experiment
  | Sweep of sweep
  | Trace of trace
  | Fuzz of fuzz
  | Rv of rv
  | Cmp of cmp
      (** multi-programmed rate-mode CMP over a shared coherent L2 *)
  | Status  (** daemon introspection; answered without queueing *)
  | Cancel of { request_id : int }  (** withdraw a still-queued request *)
  | Shutdown  (** drain admitted work, then exit *)

val op_name : t -> string

val to_json : t -> string
val of_json : string -> (t, string) result
(** Strict inverse of {!to_json}; unknown schema versions, unknown ops and
    missing or ill-typed fields are all errors naming the offender. *)

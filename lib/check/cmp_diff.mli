(** Differential fuzzing for the CMP: a multi-programmed mix of generated
    cases runs on {!Braid_cmp.Cmp} over the shared coherent L2, and each
    core's committed instruction stream (uids {e and} PCs) must be
    identical to the same program's solo run over a private hierarchy —
    sharing the backside may change {e timing}, never {e architecture}.

    Two monitors ride along: each core's {!Braid_uarch.Probe} invariant
    checks (commit order, register-file discipline under contention) and the
    {!Braid_uarch.Mem_hier} directory-legality scan (no line with two
    modified copies, no stale sharer claiming ownership). *)

type divergence = {
  core : int;  (** [-1]: the shared hierarchy rather than one core *)
  kind : string;
  detail : string;
}

type report = {
  divergences : divergence list;
  cores : int;
  dynamic_count : int;  (** dynamic instructions, summed over the mix *)
}

val ok : report -> bool

val check :
  ?cores:int ->
  ?kind:Braid_uarch.Config.core_kind ->
  seed:int ->
  index:int ->
  unit ->
  report
(** [check ~seed ~index ()] runs case [index] of the CMP stream named by
    [seed]: core [i] of [cores] (default 2) runs plain fuzz case
    [index * cores + i], so every constituent program is individually
    reproducible with {!Oracle.check}. All cores are the same machine
    [kind] (default [Braid_exec]) sharing the default CMP L2. *)

val render : report -> string
(** Indented divergence lines, empty when {!ok}. *)

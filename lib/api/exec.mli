(** Request execution: the one engine behind both the one-shot CLI and the
    daemon dispatcher. Every simulation capability (run / experiment /
    sweep / trace / fuzz) is a total function from a typed {!Request.t} to
    a typed {!Response.payload} — invalid inputs, failed jobs and internal
    errors all come back as [Error] messages, never exceptions, so one bad
    request can never take a daemon down. *)

type env = {
  ctx : Braid_sim.Suite.ctx;
      (** shared memoisation context of experiment, sweep and cmp
          requests: a daemon keeps one for its whole lifetime, so anything
          warm (prepared traces, simulation results) is reused across
          requests and clients. [run] and [trace] prepare in a ctx of
          their own, so the daemon keeps no trace per served run. *)
  counters : Braid_obs.Counters.t;
      (** the daemon's live counters ([dse.simulations],
          [dse.cache_hits]); a fresh, unread registry one-shot *)
  max_jobs : int option;
      (** cap on per-request domain-pool width; the requested value is
          still what documents record, since output never depends on it *)
}

val one_shot_env : unit -> env
(** Fresh context and counters, no jobs cap — the one-shot CLI's
    environment. *)

val exec :
  ?progress:(completed:int -> total:int -> label:string -> unit) ->
  env ->
  Request.t ->
  (Response.payload, string) result
(** Execute one request. [progress] streams per-job completions for
    experiment and sweep requests; it fires on worker domains, so it must
    be domain-safe. [Status]/[Cancel]/[Shutdown] are daemon control ops
    and come back as [Error] here. *)

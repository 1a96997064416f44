(** Parallel experiment engine: a fixed-size domain pool that fans
    simulation jobs out across cores.

    Jobs are handed out from a shared atomic counter; each result lands in
    the slot matching its input index, so output order is deterministic and
    independent of the number of domains or scheduling. With [jobs <= 1]
    (or a single-job input) the pool degrades gracefully to a plain serial
    loop on the calling domain — no domains are spawned. Jobs are not
    timed: [perfbench/] is the one timing harness.

    A raising job never poisons the batch: {!try_map_jobs} captures the
    failure in that job's own slot while every other job still runs to
    completion, and the pool is immediately reusable — the property a
    long-lived daemon relies on to reject one request without taking the
    queue down with it. {!map_jobs} keeps the historical raise-on-failure
    contract on top of it.

    Jobs must not depend on shared mutable state except through
    domain-safe structures such as {!Suite.ctx}. *)

exception Job_failed of { label : string; error : exn }
(** Raised (on the calling domain) by {!map_jobs} when a job raises. If
    several jobs fail, the one with the lowest input index is reported;
    its backtrace is the failing job's. *)

type job_error = {
  e_label : string;  (** the failing job's label *)
  error : exn;
  backtrace : Printexc.raw_backtrace;
}

val try_map_jobs :
  ?on_done:(int -> string -> unit) ->
  jobs:int ->
  (string * (unit -> 'a)) array ->
  ('a, job_error) result array
(** Run every labelled thunk; a job that raises yields [Error] in its own
    slot and nothing else is affected. [on_done i label] fires as slot [i]
    finishes (success or failure) — on the worker domain, so the callback
    must be domain-safe if [jobs > 1]. *)

val map_jobs :
  ?on_done:(int -> string -> unit) ->
  jobs:int ->
  (string * (unit -> 'a)) array ->
  'a array
(** [try_map_jobs] that re-raises the lowest-indexed failure as
    {!Job_failed} after the whole batch has drained. At most [jobs]
    domains run concurrently; [jobs <= 1] runs serially on the calling
    domain. *)

val run_experiments :
  ?on_done:(int -> string -> unit) ->
  ctx:Suite.ctx ->
  jobs:int ->
  scale:int ->
  Experiments.t list ->
  Experiments.result list
(** Fan the (experiment × benchmark) job matrix out across the pool, each
    job on its benchmark's {!Suite.prepare} at [scale], then assemble each
    experiment's typed result under its id, title and paper expectation.
    Results are returned in the order the experiments were given and are
    identical for every [jobs] value — parallelism only changes
    wall-clock, never output. *)

val experiment_job_count : Experiments.t list -> int
(** Size of the job matrix {!run_experiments} will fan out — the progress
    total for an [on_done] stream. *)

(** The [braidsim serve] daemon.

    One process serves many clients over {!Addr.t}: per-connection reader
    threads parse {!Request.t} frames, control operations (status, cancel,
    shutdown) are answered inline, and simulation work goes through a
    bounded {!Admission} queue with per-client round-robin fairness. A
    single executor thread drains the queue onto the shared {!Exec.env} —
    one memoisation context for the daemon's whole lifetime, which is what
    makes repeated sweeps answer from cache without simulating.

    [status] reports the daemon's [dse.simulations] and [dse.cache_hits]
    totals, summed over served sweeps. Each sweep's totals are added under
    the same lock as its [served] count, so every status snapshot shows
    [simulations + cache_hits] equal to the job count of the sweeps it
    counts as served.

    Shutdown (the request, or {!stop}) is graceful: admission closes,
    everything already queued still runs to its terminal frame, then
    {!run} returns. *)

type config = {
  addr : Addr.t;
  jobs : int;  (** domain-pool width requests execute with *)
  max_queue : int;  (** admission bound; pushes past it are refused *)
}

type t

val create : config -> (t, string) result
(** Binds and listens; [Error] if the endpoint cannot be bound. *)

val run : t -> unit
(** Serve until shutdown is requested, then drain and return. Blocks the
    calling thread; ignores [SIGPIPE] process-wide. *)

val stop : t -> unit
(** Request graceful shutdown from another thread (the in-process
    equivalent of a [Shutdown] request). *)

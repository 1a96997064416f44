(** The typed response vocabulary of the [braidsim-api/1] protocol.

    A served request is answered by zero or more [Progress] frames
    followed by exactly one terminal frame ([Done] or [Failed]), all
    carrying the server-assigned request id. Payloads carry the rendered
    text (and, where the one-shot CLI would write a document, the full
    JSON document) so a client delivers byte-identical output to the
    one-shot path without re-rendering anything. *)

type status = {
  pool_jobs : int;  (** domain-pool width requests execute with *)
  max_queue : int;
  queue_depth : int;  (** admitted, not yet started *)
  active : (int * string) option;  (** in-flight request id and op *)
  served : int;  (** terminal [Done] responses sent *)
  failed : int;
  cancelled : int;
  counters : (string * int) list;
      (** the daemon's totals over served sweeps, [dse.simulations] then
          [dse.cache_hits] (zero before the first sweep): the
          cache-hit-rate evidence. Counted with [served], so their sum is
          the job count of the sweeps [served] includes. *)
}

type chrome = { c_doc : string; c_events : int; c_tracks : int }

type sampled = {
  sp_reps : int;  (** representative intervals actually simulated *)
  sp_intervals : int;  (** profiling intervals in the whole run *)
  sp_ipc : float;  (** the sampled IPC estimate *)
  sp_error : float option;
      (** relative error vs a full run of the same program; present only
          when the request asked to verify *)
}
(** Machine-readable summary of a sampled [run]; carried as optional
    fields on the wire, so pre-sampling responses are unchanged. *)

type payload =
  | Run_done of { text : string; sampled : sampled option }
  | Experiment_done of { text : string; doc : string }
  | Sweep_done of {
      text : string;
      doc : string;  (** the braidsim-sweep/1 document *)
      simulated : int;
      cache_hits : int;  (** this request's {!Braid_dse.Sweep.stats} *)
    }
  | Trace_done of {
      text : string;
      counters_text : string option;
      chrome : chrome option;
    }
  | Fuzz_done of { text : string; tested : int; failures : int }
  | Cmp_done of {
      text : string;
      aggregate_ipc : float;  (** sum of per-core rate-mode IPCs *)
      weighted_speedup : float;  (** mean of per-core IPC_cmp / IPC_solo *)
      cycles : int;  (** global cycles until the last core finished *)
      invalidations : int;  (** coherence traffic (see {!Braid_uarch.Mem_hier}) *)
      downgrades : int;
      writebacks : int;
      remote_hits : int;
      counters_text : string option;
          (** the per-core-namespaced counter dump, when requested *)
    }
  | Rv_done of {
      text : string;
      output : string;  (** the reference run's HTIF putchar stream *)
      exit_code : int option;
      rv_dynamic : int;
      ir_dynamic : int;
      oracle_ok : bool option;  (** [None]: oracle not requested *)
    }
  | Status_report of status
  | Cancelled of { cancelled_id : int }
  | Shutdown_ack

type t =
  | Done of { id : int; payload : payload }
  | Progress of { id : int; completed : int; total : int; label : string }
  | Failed of { id : int; message : string }

val to_json : t -> string
val of_json : string -> (t, string) result
(** Strict inverse of {!to_json}; unknown schema versions and malformed
    frames are errors naming the offender. *)

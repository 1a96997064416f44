(* The braidsim daemon: accept loop + per-connection reader threads + one
   executor thread, multiplexing every client onto one Exec environment
   (one Suite context, one domain pool width, one Obs counter registry).

   Threading model (no async runtime — plain threads + one select):
   - the accept loop polls [select] with a short timeout so it notices the
     draining flag promptly;
   - each connection gets a reader thread: it parses frames, answers
     control operations (status / cancel / shutdown) inline, and admits
     simulation work into the bounded round-robin queue;
   - a single executor thread drains the queue, so at most one domain pool
     is ever live — parallelism lives inside a request, fairness between
     requests comes from the admission order;
   - progress frames fire from worker domains, so every write to a
     connection goes through its own mutex.

   Graceful shutdown drains everything already admitted (each queued
   request still gets its terminal frame), then unblocks the reader
   threads by shutting their sockets down and joins them. *)

module Obs = Braid_obs
module Sim = Braid_sim

type config = { addr : Addr.t; jobs : int; max_queue : int }

type conn = {
  c_fd : Unix.file_descr;
  c_ic : in_channel;
  c_oc : out_channel;
  c_wmutex : Mutex.t;  (* worker domains write progress frames *)
  c_client : int;
  mutable c_alive : bool;
}

type pending = { p_id : int; p_request : Request.t; p_conn : conn }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  env : Exec.env;
  mutex : Mutex.t;
  cond : Condition.t;  (* wakes the executor when work is admitted *)
  queue : pending Admission.t;
  mutable conns : (conn * Thread.t) list;
  mutable next_client : int;
  mutable next_id : int;
  mutable active : (int * string) option;
  mutable served : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable draining : bool;
}

let create cfg =
  if cfg.jobs <= 0 then invalid_arg "Server.create: jobs must be positive";
  match Addr.listen cfg.addr with
  | Error e -> Error e
  | Ok listen_fd ->
      let counters = Obs.Counters.create () in
      (* Pre-register the cache-effectiveness counters so a status request
         reports them (as zero) before the first sweep, and so the
         registry's name table is stable once reader threads can look. *)
      Obs.Counters.add counters "dse.simulations" 0;
      Obs.Counters.add counters "dse.cache_hits" 0;
      let env =
        { Exec.ctx = Sim.Suite.create_ctx (); counters; max_jobs = Some cfg.jobs }
      in
      Ok
        {
          cfg;
          listen_fd;
          env;
          mutex = Mutex.create ();
          cond = Condition.create ();
          queue = Admission.create ~max:cfg.max_queue;
          conns = [];
          next_client = 0;
          next_id = 0;
          active = None;
          served = 0;
          failed = 0;
          cancelled = 0;
          draining = false;
        }

(* Frame writes race between the reader thread, the executor and worker
   domains; a client that vanished mid-stream must not take the daemon (or
   the in-flight job) with it. *)
let send conn response =
  Mutex.protect conn.c_wmutex (fun () ->
      if conn.c_alive then
        match Wire.write conn.c_oc (Response.to_json response) with
        | () -> ()
        | exception Sys_error _ -> conn.c_alive <- false
        | exception Unix.Unix_error _ -> conn.c_alive <- false)

let status_snapshot t =
  let counters = Obs.Counters.snapshot t.env.Exec.counters in
  {
    Response.pool_jobs = t.cfg.jobs;
    max_queue = Admission.capacity t.queue;
    queue_depth = Admission.depth t.queue;
    active = t.active;
    served = t.served;
    failed = t.failed;
    cancelled = t.cancelled;
    counters;
  }

let handle_control t conn id request =
  match request with
  | Request.Status ->
      let st = Mutex.protect t.mutex (fun () -> status_snapshot t) in
      send conn (Response.Done { id; payload = Response.Status_report st })
  | Request.Cancel { request_id } -> (
      let removed =
        Mutex.protect t.mutex (fun () ->
            match Admission.cancel t.queue (fun p -> p.p_id = request_id) with
            | Some p ->
                t.cancelled <- t.cancelled + 1;
                Some p
            | None -> None)
      in
      match removed with
      | Some p ->
          send p.p_conn
            (Response.Failed { id = p.p_id; message = "cancelled" });
          send conn
            (Response.Done
               { id; payload = Response.Cancelled { cancelled_id = request_id } })
      | None ->
          send conn
            (Response.Failed
               {
                 id;
                 message =
                   Printf.sprintf "request %d is not queued (already running, \
                                   finished, or never admitted)" request_id;
               }))
  | Request.Shutdown ->
      Mutex.protect t.mutex (fun () ->
          t.draining <- true;
          Condition.broadcast t.cond);
      send conn (Response.Done { id; payload = Response.Shutdown_ack })
  | _ -> assert false

let admit t conn id request =
  let verdict =
    Mutex.protect t.mutex (fun () ->
        if t.draining then `Draining
        else if
          Admission.push t.queue ~client:conn.c_client
            { p_id = id; p_request = request; p_conn = conn }
        then begin
          Condition.signal t.cond;
          `Admitted
        end
        else `Full (Admission.depth t.queue))
  in
  match verdict with
  | `Admitted -> ()
  | `Draining ->
      send conn
        (Response.Failed { id; message = "server is shutting down" })
  | `Full depth ->
      send conn
        (Response.Failed
           {
             id;
             message =
               Printf.sprintf "admission queue is full (%d requests queued)"
                 depth;
           })

let reader_loop t conn =
  let rec loop () =
    match Wire.read conn.c_ic with
    | Error Wire.Closed -> ()
    | Error err ->
        (* Protocol violation on this connection only: answer with id 0
           (no request was assigned one) and hang up. *)
        send conn
          (Response.Failed { id = 0; message = Wire.error_to_string err })
    | Ok payload -> (
        let id =
          Mutex.protect t.mutex (fun () ->
              t.next_id <- t.next_id + 1;
              t.next_id)
        in
        match Request.of_json payload with
        | Error message ->
            send conn (Response.Failed { id; message });
            loop ()
        | Ok ((Request.Status | Request.Cancel _ | Request.Shutdown) as req)
          ->
            handle_control t conn id req;
            loop ()
        | Ok request ->
            admit t conn id request;
            loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      (* deregister before closing: the drain in [run] shuts down only
         registered descriptors, and a closed one's number may be reused *)
      Mutex.protect t.mutex (fun () ->
          t.conns <- List.filter (fun (c, _) -> c != conn) t.conns);
      Mutex.protect conn.c_wmutex (fun () -> conn.c_alive <- false);
      (* both channels share the descriptor: close it exactly once, or the
         second close can hit a descriptor number that a concurrent accept
         has already reused *)
      close_out_noerr conn.c_oc)
    loop

let executor_loop t =
  let rec next_pending () =
    (* called with t.mutex held *)
    match Admission.pop t.queue with
    | Some p -> Some p
    | None ->
        if t.draining then None
        else begin
          Condition.wait t.cond t.mutex;
          next_pending ()
        end
  in
  let rec loop () =
    Mutex.lock t.mutex;
    match next_pending () with
    | None -> Mutex.unlock t.mutex
    | Some p ->
        t.active <- Some (p.p_id, Request.op_name p.p_request);
        Mutex.unlock t.mutex;
        let progress ~completed ~total ~label =
          send p.p_conn
            (Response.Progress { id = p.p_id; completed; total; label })
        in
        let result = Exec.exec ~progress t.env p.p_request in
        Mutex.protect t.mutex (fun () ->
            t.active <- None;
            match result with
            | Ok _ -> t.served <- t.served + 1
            | Error _ -> t.failed <- t.failed + 1);
        (match result with
        | Ok payload -> send p.p_conn (Response.Done { id = p.p_id; payload })
        | Error message ->
            send p.p_conn (Response.Failed { id = p.p_id; message }));
        loop ()
  in
  loop ()

let stop t =
  Mutex.protect t.mutex (fun () ->
      t.draining <- true;
      Condition.broadcast t.cond)

let draining t = Mutex.protect t.mutex (fun () -> t.draining)

let run t =
  (* A client hanging up mid-stream must surface as a write error, not a
     process-killing signal. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let executor = Thread.create executor_loop t in
  let rec accept_loop () =
    if draining t then ()
    else
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error (_, _, _) -> accept_loop ()
          | fd, _ ->
              (* register under the mutex the reader needs to deregister,
                 so even an instant disconnect leaves no stale entry *)
              Mutex.protect t.mutex (fun () ->
                  t.next_client <- t.next_client + 1;
                  let conn =
                    {
                      c_fd = fd;
                      c_ic = Unix.in_channel_of_descr fd;
                      c_oc = Unix.out_channel_of_descr fd;
                      c_wmutex = Mutex.create ();
                      c_client = t.next_client;
                      c_alive = true;
                    }
                  in
                  t.conns <- (conn, Thread.create (reader_loop t) conn) :: t.conns);
              accept_loop ())
  in
  accept_loop ();
  (* Draining: no new connections; everything already admitted still runs
     to its terminal frame. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Addr.cleanup t.cfg.addr;
  Thread.join executor;
  (* Unblock reader threads parked in Wire.read, then collect them. The
     mutex keeps every listed descriptor open while it is shut down. *)
  let conns =
    Mutex.protect t.mutex (fun () ->
        List.iter
          (fun (conn, _) ->
            try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.conns;
        t.conns)
  in
  List.iter (fun (_, thread) -> Thread.join thread) conns

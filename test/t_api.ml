(* The braidsim-api/1 surface: request/response JSON round-trips, schema
   and framing rejection, bounded round-robin admission, and an end-to-end
   daemon over a Unix socket — concurrent clients, CLI-vs-served document
   byte-identity (also across a chain of near-identical requests), warm
   sweeps answered with zero simulations, graceful shutdown, and finished
   connections leaving the daemon's books. *)

module U = Braid_uarch
module Api = Braid_api
module Req = Braid_api.Request
module Resp = Braid_api.Response

(* --- request JSON round-trip --- *)

let sample_requests =
  [
    Req.Run
      {
        r_bench = "gzip";
        r_seed = 7;
        r_scale = 1000;
        r_core = U.Config.Braid_exec;
        r_width = 8;
        r_sample = None;
      };
    Req.Run
      {
        r_bench = "mcf";
        r_seed = 1;
        r_scale = 100_000;
        r_core = U.Config.Ooo;
        r_width = 8;
        r_sample =
          Some
            {
              sm_interval = 2000;
              sm_max_k = 16;
              sm_warmup = 2000;
              sm_seed = 1;
              sm_verify = true;
            };
      };
    Req.Experiment
      {
        e_ids = [ "table2"; "fig5" ];
        e_scale = 2000;
        e_jobs = 4;
        e_counters = true;
        e_sample = None;
      };
    Req.Experiment
      {
        e_ids = [];
        e_scale = 12_000;
        e_jobs = 1;
        e_counters = false;
        e_sample =
          Some
            {
              sm_interval = 1000;
              sm_max_k = 8;
              sm_warmup = 0;
              sm_seed = 7;
              sm_verify = false;
            };
      };
    Req.Sweep
      {
        s_preset = U.Config.Ooo;
        s_axes = [ "ext_regs=8,16"; "sched_window=1,2" ];
        s_mode = Braid_dse.Grid.One_at_a_time;
        s_benches = [ "gzip"; "crafty" ];
        s_seed = 3;
        s_scale = 2000;
        s_jobs = 2;
        s_cache_dir = Some "/tmp/cache";
        s_sample =
          Some
            {
              sm_interval = 2000;
              sm_max_k = 8;
              sm_warmup = 2000;
              sm_seed = 1;
              sm_verify = false;
            };
      };
    Req.Sweep
      {
        s_preset = U.Config.Braid_exec;
        s_axes = [];
        s_mode = Braid_dse.Grid.Cartesian;
        s_benches = [];
        s_seed = 1;
        s_scale = 500;
        s_jobs = 1;
        s_cache_dir = None;
        s_sample = None;
      };
    Req.Trace
      {
        t_bench = "mcf";
        t_seed = 2;
        t_scale = 1500;
        t_core = U.Config.In_order;
        t_width = 4;
        t_from = 10;
        t_cycles = 64;
        t_buffer = 4096;
        t_chrome = true;
        t_counters = true;
      };
    Req.Fuzz
      {
        f_count = 50;
        f_seed = 9;
        f_index = 3;
        f_cores = [ U.Config.Ooo; U.Config.Dep_steer ];
        f_invariants = true;
        f_shrink = false;
      };
    Req.Rv
      {
        v_hex = "braid-rv/1 fib\n@base 0x0\n@entry 0x0\n00000073\n";
        v_cores = [ U.Config.In_order; U.Config.Braid_exec ];
        v_oracle = true;
      };
    Req.Rv { v_hex = "braid-rv/1 x\n00000073\n"; v_cores = []; v_oracle = false };
    Req.Cmp
      {
        c_benches = [ "gzip"; "crafty" ];
        c_cores = 2;
        c_seed = 1;
        c_scale = 600;
        c_core = U.Config.Braid_exec;
        c_width = 8;
        c_l2 =
          Some
            {
              U.Config.size_bytes = 524288;
              ways = 8;
              line_bytes = 64;
              latency = 12;
            };
        c_counters = true;
      };
    Req.Cmp
      {
        c_benches = [ "mcf" ];
        c_cores = 4;
        c_seed = 0;
        c_scale = 1200;
        c_core = U.Config.Ooo;
        c_width = 8;
        c_l2 = None;
        c_counters = false;
      };
    Req.Status;
    Req.Cancel { request_id = 42 };
    Req.Shutdown;
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Req.of_json (Req.to_json req) with
      | Ok req' ->
          Alcotest.(check bool)
            ("round-trip " ^ Req.op_name req)
            true (req = req')
      | Error m -> Alcotest.fail (Req.op_name req ^ ": " ^ m))
    sample_requests

(* --- response JSON round-trip --- *)

let sample_responses =
  [
    Resp.Done
      {
        id = 1;
        payload = Resp.Run_done { text = "gzip on braid\n"; sampled = None };
      };
    Resp.Done
      {
        id = 12;
        payload =
          Resp.Run_done
            {
              text = "mcf on ooo (sampled)\n";
              sampled =
                Some
                  {
                    Resp.sp_reps = 8;
                    sp_intervals = 50;
                    sp_ipc = 1.875;
                    sp_error = Some 0.0042;
                  };
            };
      };
    Resp.Done
      {
        id = 13;
        payload =
          Resp.Run_done
            {
              text = "mcf on ooo (sampled)\n";
              sampled =
                Some
                  {
                    Resp.sp_reps = 5;
                    sp_intervals = 6;
                    sp_ipc = 0.5;
                    sp_error = None;
                  };
            };
      };
    Resp.Done
      {
        id = 2;
        payload =
          Resp.Experiment_done { text = "table\n"; doc = "{\"schema\":\"x\"}" };
      };
    Resp.Done
      {
        id = 3;
        payload =
          Resp.Sweep_done
            { text = "frontier\n"; doc = "{}"; simulated = 8; cache_hits = 0 };
      };
    Resp.Done
      {
        id = 4;
        payload =
          Resp.Trace_done
            {
              text = "timeline\n";
              counters_text = Some "\nfetch.cycles 12\n";
              chrome = Some { Resp.c_doc = "[]"; c_events = 9; c_tracks = 2 };
            };
      };
    Resp.Done
      {
        id = 5;
        payload =
          Resp.Trace_done { text = "t\n"; counters_text = None; chrome = None };
      };
    Resp.Done
      { id = 6; payload = Resp.Fuzz_done { text = "ok\n"; tested = 50; failures = 0 } };
    Resp.Done
      {
        id = 7;
        payload =
          Resp.Status_report
            {
              Resp.pool_jobs = 4;
              max_queue = 64;
              queue_depth = 2;
              active = Some (9, "sweep");
              served = 11;
              failed = 1;
              cancelled = 3;
              counters = [ ("dse.simulations", 8); ("dse.cache_hits", 8) ];
            };
      };
    Resp.Done
      {
        id = 12;
        payload =
          Resp.Rv_done
            {
              text = "fib: ok\n";
              output = "hello";
              exit_code = Some 6765;
              rv_dynamic = 182;
              ir_dynamic = 811;
              oracle_ok = Some true;
            };
      };
    Resp.Done
      {
        id = 13;
        payload =
          Resp.Rv_done
            {
              text = "x\n";
              output = "";
              exit_code = None;
              rv_dynamic = 1;
              ir_dynamic = 3;
              oracle_ok = None;
            };
      };
    Resp.Done
      {
        id = 14;
        payload =
          Resp.Cmp_done
            {
              text = "cmp: 2 cores\n";
              aggregate_ipc = 2.5;
              weighted_speedup = 0.9375;
              cycles = 2818;
              invalidations = 50;
              downgrades = 50;
              writebacks = 55;
              remote_hits = 72;
              counters_text = Some "\ncore0.commit.instrs 3122\n";
            };
      };
    Resp.Done
      {
        id = 15;
        payload =
          Resp.Cmp_done
            {
              text = "cmp: 1 core\n";
              aggregate_ipc = 1.25;
              weighted_speedup = 1.0;
              cycles = 2402;
              invalidations = 0;
              downgrades = 0;
              writebacks = 0;
              remote_hits = 0;
              counters_text = None;
            };
      };
    Resp.Done { id = 8; payload = Resp.Cancelled { cancelled_id = 5 } };
    Resp.Done { id = 9; payload = Resp.Shutdown_ack };
    Resp.Progress { id = 10; completed = 3; total = 8; label = "table2/gcc" };
    Resp.Failed { id = 11; message = "unknown benchmark \"gzp\"" };
  ]

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      match Resp.of_json (Resp.to_json resp) with
      | Ok resp' -> Alcotest.(check bool) "round-trip" true (resp = resp')
      | Error m -> Alcotest.fail m)
    sample_responses

(* --- schema and frame rejection --- *)

let test_schema_rejection () =
  let expect_err label json fragment =
    match Req.of_json json with
    | Ok _ -> Alcotest.fail (label ^ ": accepted")
    | Error m ->
        Alcotest.(check bool)
          (label ^ " names the offender: " ^ m)
          true
          (Astring_contains.contains m fragment)
  in
  expect_err "foreign version"
    "{\"schema\":\"braidsim-api/2\",\"op\":\"status\"}" "schema";
  expect_err "missing schema" "{\"op\":\"status\"}" "schema";
  expect_err "unknown op"
    "{\"schema\":\"braidsim-api/1\",\"op\":\"reboot\"}" "op";
  expect_err "missing field"
    "{\"schema\":\"braidsim-api/1\",\"op\":\"run\",\"bench\":\"gzip\"}" "seed";
  expect_err "not json" "}{" "";
  (* responses enforce the same version gate *)
  (match Resp.of_json "{\"schema\":\"braidsim-api/9\",\"type\":\"done\"}" with
  | Ok _ -> Alcotest.fail "foreign response version accepted"
  | Error _ -> ())

let test_wire_framing () =
  let module W = Braid_api.Wire in
  (* [Wire.read] over a pipe carrying exactly [bytes]: the result and
     whatever the read left unconsumed *)
  let read bytes =
    let r, w = Unix.pipe ~cloexec:true () in
    let oc = Unix.out_channel_of_descr w in
    output_string oc bytes;
    close_out oc;
    let ic = Unix.in_channel_of_descr r in
    let res = W.read ic in
    let rest = In_channel.input_all ic in
    close_in ic;
    (res, rest)
  in
  (* one frame is read and the bytes after it are left on the stream *)
  (match read (W.encode "hello" ^ "trailing") with
  | Ok payload, rest ->
      Alcotest.(check string) "payload" "hello" payload;
      Alcotest.(check string) "unconsumed" "trailing" rest
  | Error e, _ -> Alcotest.fail (W.error_to_string e));
  (* an empty stream is a clean close, not truncation *)
  (match read "" with
  | Error W.Closed, _ -> ()
  | _ -> Alcotest.fail "empty stream should be Closed");
  (* a frame cut mid-header and mid-payload is truncated *)
  (match read (String.sub (W.encode "hello") 0 2) with
  | Error (W.Truncated _), _ -> ()
  | _ -> Alcotest.fail "short header should be Truncated");
  (match read (String.sub (W.encode "hello") 0 6) with
  | Error (W.Truncated _), _ -> ()
  | _ -> Alcotest.fail "short payload should be Truncated");
  (* a header naming more than max_frame is rejected without allocating *)
  match read "\x7f\xff\xff\xff" with
  | Error (W.Oversized _), _ -> ()
  | _ -> Alcotest.fail "oversized header should be rejected"

(* --- admission fairness --- *)

let test_admission_fairness () =
  let q = Api.Admission.create ~max:16 in
  List.iter
    (fun (client, x) ->
      Alcotest.(check bool) "admitted" true (Api.Admission.push q ~client x))
    [ (1, "a1"); (1, "a2"); (1, "a3"); (2, "b1"); (2, "b2"); (3, "c1") ];
  let order = List.init 6 (fun _ -> Option.get (Api.Admission.pop q)) in
  (* round-robin across clients, FIFO within a client: the flooding
     client 1 cannot starve clients 2 and 3 *)
  Alcotest.(check (list string))
    "service order" [ "a1"; "b1"; "c1"; "a2"; "b2"; "a3" ] order;
  Alcotest.(check bool) "drained" true (Api.Admission.pop q = None)

let test_admission_bound_and_cancel () =
  let q = Api.Admission.create ~max:2 in
  Alcotest.(check bool) "first" true (Api.Admission.push q ~client:1 10);
  Alcotest.(check bool) "second" true (Api.Admission.push q ~client:2 20);
  Alcotest.(check bool) "refused at capacity" false
    (Api.Admission.push q ~client:3 30);
  Alcotest.(check int) "depth" 2 (Api.Admission.depth q);
  (* cancelling frees a slot and keeps service order for the rest *)
  Alcotest.(check (option int)) "cancelled" (Some 10)
    (Api.Admission.cancel q (fun x -> x = 10));
  Alcotest.(check (option int)) "missing" None
    (Api.Admission.cancel q (fun x -> x = 99));
  Alcotest.(check bool) "slot freed" true (Api.Admission.push q ~client:1 11);
  Alcotest.(check (option int)) "next" (Some 20) (Api.Admission.pop q);
  Alcotest.(check (option int)) "last" (Some 11) (Api.Admission.pop q);
  Alcotest.(check (option int)) "empty" None (Api.Admission.pop q)

(* --- end-to-end daemon --- *)

let fresh_path suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "braidsim-test-%d-%s" (Unix.getpid ()) suffix)

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let path = Filename.concat dir f in
        if Sys.is_directory path then rm_rf path else Sys.remove path)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_server ~jobs f =
  let sock = fresh_path "api.sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let addr = Api.Addr.Unix_sock sock in
  match Api.Server.create { Api.Server.addr; jobs; max_queue = 16 } with
  | Error m -> Alcotest.fail m
  | Ok server ->
      let th = Thread.create Api.Server.run server in
      Fun.protect
        ~finally:(fun () ->
          Api.Server.stop server;
          Thread.join th;
          try Unix.unlink sock with Unix.Unix_error _ -> ())
        (fun () -> f addr)

let rpc ?on_progress addr req =
  match Api.Client.connect addr with
  | Error m -> Alcotest.fail m
  | Ok c ->
      let r = Api.Client.request ?on_progress c req in
      Api.Client.close c;
      r

let experiment_req =
  Req.Experiment
    {
      e_ids = [ "table2" ];
      e_scale = 1200;
      e_jobs = 2;
      e_counters = false;
      e_sample = None;
    }

(* The tentpole acceptance criterion: the served document is byte-for-byte
   the one-shot CLI's document, because both are the same Exec payload. *)
let test_served_byte_identity () =
  let one_shot =
    match Api.Exec.exec (Api.Exec.one_shot_env ()) experiment_req with
    | Ok (Resp.Experiment_done { text; doc }) -> (text, doc)
    | Ok _ -> Alcotest.fail "one-shot: unexpected payload"
    | Error m -> Alcotest.fail m
  in
  with_server ~jobs:2 (fun addr ->
      match rpc addr experiment_req with
      | Ok (Resp.Experiment_done { text; doc }) ->
          Alcotest.(check string) "rendered text identical" (fst one_shot) text;
          Alcotest.(check string) "json document identical" (snd one_shot) doc
      | Ok _ -> Alcotest.fail "served: unexpected payload"
      | Error m -> Alcotest.fail m)

(* Progress frames stream while the job runs: monotonically increasing
   completions up to the advertised total. *)
let test_progress_stream () =
  with_server ~jobs:2 (fun addr ->
      let seen = ref [] in
      let on_progress ~completed ~total ~label:_ =
        seen := (completed, total) :: !seen
      in
      match rpc ~on_progress addr experiment_req with
      | Ok (Resp.Experiment_done _) ->
          let seen = List.rev !seen in
          Alcotest.(check bool) "some progress arrived" true (seen <> []);
          List.iter
            (fun (c, t) ->
              Alcotest.(check bool) "within total" true (c >= 1 && c <= t))
            seen;
          Alcotest.(check bool) "monotonic" true
            (let rec mono = function
               | (a, _) :: ((b, _) :: _ as rest) -> a < b && mono rest
               | _ -> true
             in
             mono seen)
      | Ok _ -> Alcotest.fail "unexpected payload"
      | Error m -> Alcotest.fail m)

(* Several clients at once: every request gets its own correct terminal
   frame even though one executor serializes the simulations. *)
let test_concurrent_clients () =
  with_server ~jobs:2 (fun addr ->
      let results = Array.make 3 (Error "unset") in
      let threads =
        Array.init 3 (fun i ->
            Thread.create
              (fun () ->
                let req =
                  Req.Run
                    {
                      r_bench = "gzip";
                      r_seed = 1 + i;
                      r_scale = 800;
                      r_core = U.Config.Braid_exec;
                      r_width = 8;
                      r_sample = None;
                    }
                in
                results.(i) <- rpc addr req)
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Ok (Resp.Run_done { text; _ }) ->
              Alcotest.(check bool)
                (Printf.sprintf "client %d got a run report" i)
                true
                (Astring_contains.contains text "gzip on braid")
          | Ok _ -> Alcotest.fail "unexpected payload"
          | Error m -> Alcotest.fail m)
        results)

(* The warm-request acceptance criterion: a repeated sweep over the same
   cache directory performs zero simulations, and the daemon's counter
   registry proves it. *)
let test_warm_sweep_zero_simulation () =
  let cache_dir = fresh_path "warm-cache" in
  rm_rf cache_dir;
  let sweep =
    Req.Sweep
      {
        s_preset = U.Config.Braid_exec;
        s_axes = [ "ext_regs=8,16" ];
        s_mode = Braid_dse.Grid.Cartesian;
        s_benches = [ "gzip" ];
        s_seed = 1;
        s_scale = 1000;
        s_jobs = 2;
        s_cache_dir = Some cache_dir;
        s_sample = None;
      }
  in
  Fun.protect
    ~finally:(fun () -> rm_rf cache_dir)
    (fun () ->
      with_server ~jobs:2 (fun addr ->
          let sweep_stats label =
            match rpc addr sweep with
            | Ok (Resp.Sweep_done { simulated; cache_hits; doc; _ }) ->
                Alcotest.(check bool) (label ^ " carries a document") true
                  (String.length doc > 0);
                (simulated, cache_hits)
            | Ok _ -> Alcotest.fail (label ^ ": unexpected payload")
            | Error m -> Alcotest.fail m
          in
          let cold_simulated, cold_hits = sweep_stats "cold" in
          Alcotest.(check int) "cold simulated both points" 2 cold_simulated;
          Alcotest.(check int) "cold hit nothing" 0 cold_hits;
          let warm_simulated, warm_hits = sweep_stats "warm" in
          Alcotest.(check int) "warm simulated nothing" 0 warm_simulated;
          Alcotest.(check int) "warm hit every point" 2 warm_hits;
          (* the daemon's own registry shows the same evidence *)
          match rpc addr Req.Status with
          | Ok (Resp.Status_report st) ->
              let count name =
                try List.assoc name st.Resp.counters
                with Not_found -> Alcotest.fail ("no counter " ^ name)
              in
              Alcotest.(check int) "dse.simulations" 2 (count "dse.simulations");
              Alcotest.(check int) "dse.cache_hits" 2 (count "dse.cache_hits");
              Alcotest.(check int) "served" 2 st.Resp.served;
              Alcotest.(check int) "nothing failed" 0 st.Resp.failed
          | Ok _ -> Alcotest.fail "unexpected payload"
          | Error m -> Alcotest.fail m))

(* A bad request is refused with a message; the daemon and the connection
   both survive to serve the next one. *)
let test_bad_request_isolated () =
  with_server ~jobs:1 (fun addr ->
      match Api.Client.connect addr with
      | Error m -> Alcotest.fail m
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Api.Client.close c)
            (fun () ->
              (match
                 Api.Client.request c
                   (Req.Run
                      {
                        r_bench = "no-such-bench";
                        r_seed = 1;
                        r_scale = 100;
                        r_core = U.Config.Braid_exec;
                        r_width = 8;
                        r_sample = None;
                      })
               with
              | Error m ->
                  Alcotest.(check bool) "names the benchmark" true
                    (Astring_contains.contains m "no-such-bench")
              | Ok _ -> Alcotest.fail "bad request accepted");
              match Api.Client.request c Req.Status with
              | Ok (Resp.Status_report st) ->
                  Alcotest.(check int) "failure was counted" 1 st.Resp.failed
              | Ok _ -> Alcotest.fail "unexpected payload"
              | Error m -> Alcotest.fail m))

(* Graceful shutdown: the Shutdown request acks, run returns, and the
   socket file is gone. *)
let test_graceful_shutdown () =
  let sock = fresh_path "shutdown.sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let addr = Api.Addr.Unix_sock sock in
  match Api.Server.create { Api.Server.addr; jobs = 1; max_queue = 4 } with
  | Error m -> Alcotest.fail m
  | Ok server ->
      let th = Thread.create Api.Server.run server in
      (match rpc addr Req.Shutdown with
      | Ok Resp.Shutdown_ack -> ()
      | Ok _ -> Alcotest.fail "unexpected payload"
      | Error m -> Alcotest.fail m);
      Thread.join th;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock)

(* One daemon, a seeded chain of sweeps: each request copies an earlier
   one and changes one field (seed, scale, preset, one axis value or the
   sampling spec), and every reply must equal a fresh one-shot execution.
   bzip2's braid binary runs equally long traces at scale 12000 for every
   seed drawn here, so a memo keyed on less than the simulated content
   answers from the wrong seed. *)
let test_served_differential () =
  let base =
    {
      Req.s_preset = U.Config.Braid_exec;
      s_axes = [ "clusters=4,8" ];
      s_mode = Braid_dse.Grid.Cartesian;
      s_benches = [ "bzip2" ];
      s_seed = 0;
      s_scale = 12000;
      s_jobs = 1;
      s_cache_dir = None;
      s_sample = None;
    }
  in
  let sampling interval =
    Some
      {
        Req.sm_interval = interval;
        sm_max_k = 4;
        sm_warmup = 500;
        sm_seed = 1;
        sm_verify = false;
      }
  in
  let rng = Prng.create 16L in
  (* a value other than [current], so every step changes its field *)
  let other current values =
    let values = List.filter (fun v -> v <> current) values in
    List.nth values (Prng.int rng (List.length values))
  in
  let mutate (s : Req.sweep) =
    match Prng.int rng 5 with
    | 0 -> { s with s_seed = other s.Req.s_seed [ 0; 3; 8; 9; 12 ] }
    | 1 -> { s with s_scale = other s.Req.s_scale [ 8000; 12000 ] }
    | 2 ->
        {
          s with
          s_preset =
            other s.Req.s_preset
              U.Config.[ Braid_exec; Ooo; Dep_steer; Cgooo ];
        }
    | 3 ->
        let axis = List.hd s.Req.s_axes in
        { s with s_axes = [ other axis [ "clusters=4,8"; "clusters=2,8"; "clusters=4,16" ] ] }
    | _ -> { s with s_sample = other s.Req.s_sample [ None; sampling 1000; sampling 2000 ] }
  in
  let chain = Array.make 10 base in
  for i = 1 to Array.length chain - 1 do
    chain.(i) <- mutate chain.(Prng.int rng i)
  done;
  let sweep_text what = function
    | Ok (Resp.Sweep_done { text; doc; _ }) -> (text, doc)
    | Ok _ -> Alcotest.failf "%s: unexpected payload" what
    | Error m -> Alcotest.failf "%s: %s" what m
  in
  with_server ~jobs:1 (fun addr ->
      Array.iteri
        (fun i s ->
          let what =
            Printf.sprintf "request %d (%s, seed %d, scale %d, %s%s)" i
              (U.Config.kind_to_string s.Req.s_preset)
              s.Req.s_seed s.Req.s_scale (List.hd s.Req.s_axes)
              (if s.Req.s_sample = None then "" else ", sampled")
          in
          let served = sweep_text what (rpc addr (Req.Sweep s)) in
          let one_shot =
            sweep_text what
              (Api.Exec.exec (Api.Exec.one_shot_env ()) (Req.Sweep s))
          in
          Alcotest.(check string) (what ^ ": text") (fst one_shot) (fst served);
          Alcotest.(check string) (what ^ ": document") (snd one_shot) (snd served))
        chain)

(* A finished connection leaves the daemon's books. Otherwise shutdown
   still shuts its descriptor down, and by then the number may belong to
   something else. *)
let test_descriptor_reuse () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let sock = fresh_path "reuse.sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let addr = Api.Addr.Unix_sock sock in
  match Api.Server.create { Api.Server.addr; jobs = 1; max_queue = 4 } with
  | Error m -> Alcotest.fail m
  | Ok server ->
      let th = Thread.create Api.Server.run server in
      let idle = open_fds () in
      (match rpc addr Req.Status with
      | Ok (Resp.Status_report _) -> ()
      | Ok _ -> Alcotest.fail "unexpected payload"
      | Error m -> Alcotest.fail m);
      (* the client has closed its end; wait for the daemon to close its *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while open_fds () > idle && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check int) "daemon closed the connection" idle (open_fds ());
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close a;
          Unix.close b)
        (fun () ->
          Api.Server.stop server;
          Thread.join th;
          let sent =
            try Unix.write_substring a "x" 0 1
            with Unix.Unix_error (e, _, _) ->
              Alcotest.failf "write after stop: %s" (Unix.error_message e)
          in
          let buf = Bytes.create 1 in
          Alcotest.(check int) "byte sent" 1 sent;
          Alcotest.(check int) "byte received" 1 (Unix.read b buf 0 1);
          Alcotest.(check char) "same byte" 'x' (Bytes.get buf 0))

let suite =
  ( "api",
    [
      Alcotest.test_case "request json round-trip" `Quick test_request_roundtrip;
      Alcotest.test_case "response json round-trip" `Quick
        test_response_roundtrip;
      Alcotest.test_case "schema rejection" `Quick test_schema_rejection;
      Alcotest.test_case "wire framing" `Quick test_wire_framing;
      Alcotest.test_case "admission fairness" `Quick test_admission_fairness;
      Alcotest.test_case "admission bound and cancel" `Quick
        test_admission_bound_and_cancel;
      Alcotest.test_case "served output byte-identical" `Slow
        test_served_byte_identity;
      Alcotest.test_case "progress stream" `Slow test_progress_stream;
      Alcotest.test_case "concurrent clients" `Slow test_concurrent_clients;
      Alcotest.test_case "warm sweep zero simulations" `Slow
        test_warm_sweep_zero_simulation;
      Alcotest.test_case "bad request isolated" `Quick test_bad_request_isolated;
      Alcotest.test_case "graceful shutdown" `Quick test_graceful_shutdown;
      Alcotest.test_case "served matches one-shot across a request chain"
        `Slow test_served_differential;
      Alcotest.test_case "shutdown spares reused descriptors" `Quick
        test_descriptor_reuse;
    ] )

(* braidsim end-to-end benchmark.

   Four workloads drive the simulator's public API the way its users do:
   one-shot `run`s (cold-run), design-space sweeps (sweep), sampled runs
   (sampled) and a `braidsim serve` daemon answering two client
   connections (serve). Every output is checked. With --trace 0 the
   end-to-end metrics are printed; with --trace 1 an untraced pass is
   followed by a traced pass over the same requests, whose spans (taken
   here, around the calls into each library) give the per-layer metrics.
   The last stdout line is one JSON object. See README.md. *)

module U = Braid_uarch
module W = Braid_workload
module C = Braid_core
module Api = Braid_api
module Req = Braid_api.Request
module Resp = Braid_api.Response
module Sim = Braid_sim
module Dse = Braid_dse
module Smp = Braid_sample

(* --- the workloads' fixed shape --- *)

let cold_benches = [ "gzip"; "mcf"; "crafty"; "swim"; "art"; "mgrid" ]
let all_kinds = U.Config.[ In_order; Dep_steer; Ooo; Braid_exec; Cgooo ]
let cold_scale = 400_000
let sweep_benches = [ "gzip"; "mcf"; "swim"; "mgrid" ]
let sweep_axes = [ "clusters=4,8,16"; "cluster_entries=8,32" ]
let sweep_scale = 200_000
(* One domain: on a shared host each vCPU is slowed at its own moments,
   and every minor collection waits for the slower domain; two-domain
   sweep times of identical runs differed by 2.5x. *)
let sweep_jobs = 1
let sampled_kinds = U.Config.[ Braid_exec; Ooo ]
let sampled_scale = 1_600_000
let serve_scale = 50_000
let serve_sweep_benches = [ "gzip"; "swim" ]
let serve_sweep_axes = [ "clusters=4,8" ]
let setup_launches = 31

(* Driver.measure replays this many instructions before each window into
   caches and predictor; the replay below must mirror it exactly. *)
let warm_history = 65_536
let kind_name = U.Config.kind_to_string
let pairs benches kinds = List.concat_map (fun b -> List.map (fun k -> (b, k)) kinds) benches
let key (b, k) = b ^ "/" ^ kind_name k
let braid_binary = function U.Config.Braid_exec | U.Config.Cgooo -> true | _ -> false

let sample_req =
  let s = Smp.Spec.default in
  {
    Req.sm_interval = s.Smp.Spec.interval;
    sm_max_k = s.Smp.Spec.max_k;
    sm_warmup = s.Smp.Spec.warmup;
    sm_seed = s.Smp.Spec.seed;
    sm_verify = false;
  }

let run_req ~seed ~scale ?sample (bench, kind) =
  Req.Run
    { Req.r_bench = bench; r_seed = seed; r_scale = scale; r_core = kind; r_width = 8; r_sample = sample }

let sweep_req ~seed ~benches ~axes ~scale ~jobs cache_dir =
  Req.Sweep
    {
      Req.s_preset = U.Config.Braid_exec;
      s_axes = axes;
      s_mode = Dse.Grid.Cartesian;
      s_benches = benches;
      s_seed = seed;
      s_scale = scale;
      s_jobs = jobs;
      s_cache_dir = cache_dir;
      s_sample = None;
    }

let shuffle seed l =
  let rng = Prng.create (Int64.of_int seed) in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* --- accounting: requests attempted, and the ones that failed --- *)

(* ids are taken from the serve loop's two threads too *)
let attempted = Atomic.make 0
let failed_reqs : (int, unit) Hashtbl.t = Hashtbl.create 16
let attempt () = Atomic.fetch_and_add attempted 1

let fail ~req fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "perfbench: request %d failed: %s\n%!" req msg;
      Hashtbl.replace failed_reqs req ())
    fmt

let now = Spans.now

let text_int text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | k :: v :: _ when k = name -> int_of_string_opt v
         | _ -> None)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0
let mean l = ratio (sum l) (float_of_int (List.length l))

(* Whole rotations of [items] until [seconds] have passed (at least one),
   so every run measures the same mix of requests. *)
let rotations ~seconds items f =
  let t0 = now () in
  let rec go acc =
    let acc = List.fold_left (fun acc x -> f x :: acc) acc items in
    if now () -. t0 < seconds then go acc else List.rev acc
  in
  go []

(* Host-speed calibration helper, started for measuring runs. *)
let cal : Calib.t option ref = ref None
let tick () = Option.iter Calib.tick !cal
let scale_over ~t0 ~t1 = Option.fold ~none:1.0 ~some:(Calib.scale_over ~t0 ~t1) !cal

(* Before each in-process request: calibrate, and start from a collected
   heap as a fresh `braidsim` process would, so neither the previous
   request's garbage nor the calibration is timed. *)
let between_requests () =
  tick ();
  Gc.full_major ()

let traced_request () =
  between_requests ();
  attempt ()

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* One measured request, sent at [t0]: what the metrics need. *)
type sample = { item : int; t0 : float; lat : float; instrs : int }

(* Its latency at the reference host speed (Calib). *)
let scaled (s : sample) = s.lat *. scale_over ~t0:s.t0 ~t1:(s.t0 +. s.lat)

(* --- output checks --- *)

let check_cold ~req ~(exp : Expect.t) ~seed pair (cycles, instrs) =
  match Hashtbl.find_opt exp.Expect.cold_run (key pair) with
  | Some (c, i) when c = cycles && i = instrs -> ()
  | Some (c, i) ->
      fail ~req "run %s seed %d: %d cycles, %d instructions; stored %d, %d" (key pair) seed cycles
        instrs c i
  | None -> fail ~req "run %s seed %d: no stored expectation" (key pair) seed

let run_outcome ~req ~what = function
  | Ok (Resp.Run_done { text; sampled }) -> (
      match (text_int text "cycles", text_int text "instructions") with
      | Some c, Some i -> Some (c, i, text, sampled)
      | _ ->
          fail ~req "%s: unparsable text" what;
          None)
  | Ok _ ->
      fail ~req "%s: unexpected payload" what;
      None
  | Error m ->
      fail ~req "%s: %s" what m;
      None

(* --- cold-run --- *)

let cold_items seed = Array.of_list (shuffle seed (pairs cold_benches all_kinds))

let cold_untraced ~seed ~seconds ~exp =
  let items = cold_items seed in
  rotations ~seconds
    (List.init (Array.length items) Fun.id)
    (fun item ->
      let pair = items.(item) in
      let id = attempt () in
      between_requests ();
      let t0 = now () in
      let r = Api.Exec.exec (Api.Exec.one_shot_env ()) (run_req ~seed ~scale:cold_scale pair) in
      let lat = now () -. t0 in
      let instrs =
        match run_outcome ~req:id ~what:("run " ^ key pair) r with
        | Some (c, i, _, _) ->
            check_cold ~req:id ~exp ~seed pair (c, i);
            i
        | None -> 0
      in
      { item; t0; lat; instrs })

(* Create, step to the end, read the result: the cycle loop timed from
   outside, one span per phase. *)
let step_core sp ~parent ~req ?prewarm ?measure_from ~warm_data cfg trace =
  let core =
    Spans.with_ sp ~parent ~req "uarch.create" (fun _ ->
        (U.Core.create ~warm_data ?prewarm ?measure_from cfg trace, 0))
  in
  Spans.with_ sp ~parent ~req ("uarch.step." ^ kind_name cfg.U.Config.kind) (fun _ ->
      let n = ref 0 in
      while not (U.Core.finished core) do
        U.Core.step core;
        incr n
      done;
      ((), !n));
  Spans.with_ sp ~parent ~req "uarch.result" (fun _ -> (U.Core.result core, 0))

(* Generate the benchmark and compile the binary the core kind runs, as
   Exec.exec does. *)
let gen_compile sp ~root ~req ~seed ~scale (bench, kind) =
  let span name f = Spans.with_ sp ~parent:root ~req name f in
  let program, init_mem =
    span "workload.gen" (fun _ -> (W.Spec.generate (W.Spec.find bench) ~seed ~scale, 0))
  in
  let binary =
    span "core.compile" (fun _ ->
        ( (if braid_binary kind then (C.Transform.run program).C.Transform.program
           else (C.Transform.conventional program).C.Extalloc.program),
          0 ))
  in
  (binary, init_mem)

(* One cold run, decomposed into the library calls Exec.exec makes. *)
let cold_traced sp ~seed ~exp pair =
  let kind = snd pair in
  let id = traced_request () in
  let r, trace, warm_data, cfg =
    Spans.with_ sp ~req:id "request" (fun root ->
        let binary, init_mem = gen_compile sp ~root ~req:id ~seed ~scale:cold_scale pair in
        let trace =
          Spans.with_ sp ~parent:root ~req:id "isa.trace" (fun _ ->
              let out = Emulator.run ~max_steps:(50 * cold_scale) ~trace:true ~init_mem binary in
              let t = Option.get out.Emulator.trace in
              (t, Trace.length t))
        in
        let cfg = U.Config.preset_of_kind kind in
        let warm_data = List.map fst init_mem in
        ((step_core sp ~parent:root ~req:id ~warm_data cfg trace, trace, warm_data, cfg), 0))
  in
  check_cold ~req:id ~exp ~seed pair (r.U.Core.cycles, r.U.Core.instructions);
  let full = Spans.with_ sp ~req:id "check.pipeline" (fun _ -> (U.Pipeline.run ~warm_data cfg trace, 0)) in
  if full <> r then fail ~req:id "run %s: stepped Core result differs from Pipeline.run" (key pair)

(* --- sampled --- *)

let sampled_items seed = Array.of_list (shuffle seed (pairs cold_benches sampled_kinds))
let bits = Int64.bits_of_float

let check_sampled ~req ~(exp : Expect.t) ~seed pair ipc errs =
  match Hashtbl.find_opt exp.Expect.sampled (key pair) with
  | Some (s, full) ->
      if bits s <> bits ipc then
        fail ~req "sampled run %s seed %d: IPC %.17g; stored %.17g" (key pair) seed ipc s;
      errs := Float.abs (ipc -. full) /. full :: !errs
  | None -> fail ~req "sampled run %s seed %d: no stored expectation" (key pair) seed

let sampled_untraced ~seed ~seconds ~exp ~errs =
  let items = sampled_items seed in
  rotations ~seconds
      (List.init (Array.length items) Fun.id)
      (fun item ->
        let pair = items.(item) in
        let id = attempt () in
        between_requests ();
        let t0 = now () in
        let r =
          Api.Exec.exec (Api.Exec.one_shot_env ())
            (run_req ~seed ~scale:sampled_scale ~sample:sample_req pair)
        in
        let lat = now () -. t0 in
        let instrs =
          match run_outcome ~req:id ~what:("sampled run " ^ key pair) r with
          | Some (_, i, _, Some sp) ->
              check_sampled ~req:id ~exp ~seed pair sp.Resp.sp_ipc errs;
              i
          | Some _ ->
              fail ~req:id "sampled run %s: no sampling summary" (key pair);
              0
          | None -> 0
        in
        { item; t0; lat; instrs })

type replay = { mutable detail : int; mutable total : int }

(* One sampled run, decomposed into the calls Driver.run makes; then its
   representatives are replayed from outside with the public pieces
   (Compiled.start/advance, trace_window, Core) so the time inside
   Driver.measure splits into fast-forward, trace production and detailed
   simulation. A replayed IPC must equal the driver's bit for bit. *)
let sampled_traced sp ~seed ~exp ~errs ~(acc : replay) pair =
  let kind = snd pair in
  let spec = Smp.Spec.default in
  let id = traced_request () in
  let code, init_mem, cfg, t =
    Spans.with_ sp ~req:id "request" (fun root ->
        let span name f = Spans.with_ sp ~parent:root ~req:id name f in
        let binary, init_mem = gen_compile sp ~root ~req:id ~seed ~scale:sampled_scale pair in
        let code = span "isa.compile" (fun _ -> (Emulator.Compiled.compile binary, 0)) in
        let plan =
          span "sample.plan" (fun _ ->
              (Smp.Driver.plan ~init_mem ~max_steps:(50 * sampled_scale) ~spec code, 0))
        in
        let cfg = U.Config.preset_of_kind kind in
        let t =
          span "sample.measure" (fun _ ->
              (Smp.Driver.measure ~warm_data:(List.map fst init_mem) plan cfg, 0))
        in
        ((code, init_mem, cfg, t), 0))
  in
  check_sampled ~req:id ~exp ~seed pair t.Smp.Driver.ipc errs;
  acc.total <- acc.total + t.Smp.Driver.total_instrs;
  let warm_data = List.map fst init_mem in
  Spans.with_ sp ~req:id "sample.replay" (fun root ->
      let run = Emulator.Compiled.start ~init_mem code in
      let snap = ref None in
      List.iter
        (fun (rep : Smp.Driver.rep) ->
          Spans.with_ sp ~parent:root ~req:id "sample.rep" (fun rid ->
              let span name f = Spans.with_ sp ~parent:rid ~req:id name f in
              let wstart = max 0 (rep.Smp.Driver.start - spec.Smp.Spec.warmup) in
              let pstart = max 0 (wstart - warm_history) in
              span "sample.ff" (fun _ ->
                  let pos = Emulator.Compiled.steps run in
                  (if pstart < pos then
                     match !snap with
                     | Some (s, spos) when spos <= pstart -> Emulator.Compiled.restore run s
                     | _ -> failwith "replay: representatives out of order");
                  let pos = Emulator.Compiled.steps run in
                  if pstart > pos then ignore (Emulator.Compiled.advance run ~fuel:(pstart - pos));
                  snap := Some (Emulator.Compiled.snapshot run, pstart);
                  ((), 0));
              let prewarm =
                if wstart = pstart then None
                else
                  Some
                    (span "sample.warm_trace" (fun _ ->
                         (Emulator.Compiled.trace_window run ~max_steps:(wstart - pstart), 0)))
              in
              let wlen = rep.Smp.Driver.start - wstart in
              let window =
                span "sample.warm_trace" (fun _ ->
                    ( Emulator.Compiled.trace_window run ~max_steps:(wlen + rep.Smp.Driver.length),
                      0 ))
              in
              let r =
                span "sample.window_sim" (fun wid ->
                    ( step_core sp ~parent:wid ~req:id ?prewarm
                        ?measure_from:(if wlen = 0 then None else Some wlen)
                        ~warm_data cfg window,
                      0 ))
              in
              let ipc =
                float_of_int r.U.Core.instructions /. float_of_int (max 1 r.U.Core.cycles)
              in
              if bits ipc <> bits rep.Smp.Driver.ipc then
                fail ~req:id "sampled run %s: replayed rep %d IPC %.17g, driver %.17g" (key pair)
                  rep.Smp.Driver.interval_index ipc rep.Smp.Driver.ipc;
              acc.detail <- acc.detail + Trace.length window;
              ((), Trace.length window)))
        t.Smp.Driver.reps;
      ((), 0))

(* --- sweep --- *)

(* Each request sweeps one benchmark over the whole grid, so a run holds
   several requests, each timed against its own host-speed sample. *)
let sweep_items seed = Array.of_list (shuffle seed sweep_benches)
let sweep_points = 6

(* The braidsim-sweep/1 document's (point name, bench, cycles,
   instructions) rows. *)
let sweep_rows doc =
  let j = Json.parse_exn doc in
  let arr k o = match Json.member k o with Some (Json.Arr l) -> l | _ -> [] in
  List.concat_map
    (fun p ->
      let name = Option.get (Json.str_member "name" p) in
      List.map
        (fun r ->
          ( name,
            Option.get (Json.str_member "bench" r),
            Option.get (Json.int_member "cycles" r),
            Option.get (Json.int_member "instructions" r) ))
        (arr "runs" p))
    (arr "points" j)

let check_sweep ~req ~(exp : Expect.t) ~seed = function
  | Ok (Resp.Sweep_done { doc; simulated; cache_hits; _ }) ->
      let rows = sweep_rows doc in
      if List.length rows <> sweep_points then
        fail ~req "sweep seed %d: %d jobs, expected %d" seed (List.length rows) sweep_points;
      if simulated <> sweep_points || cache_hits <> 0 then
        fail ~req "sweep seed %d: %d simulated, %d cache hits; expected %d and 0" seed simulated
          cache_hits sweep_points;
      List.iter
        (fun (pt, b, c, _) ->
          match Hashtbl.find_opt exp.Expect.sweep (pt ^ "/" ^ b) with
          | Some s when s = c -> ()
          | Some s -> fail ~req "sweep seed %d: %s/%s %d cycles; stored %d" seed pt b c s
          | None -> fail ~req "sweep seed %d: %s/%s has no stored expectation" seed pt b)
        rows;
      (List.fold_left (fun a (_, _, _, i) -> a + i) 0 rows, simulated, cache_hits)
  | Ok _ ->
      fail ~req "sweep: unexpected payload";
      (0, 0, 0)
  | Error m ->
      fail ~req "sweep: %s" m;
      (0, 0, 0)

let sweep_untraced ~seed ~seconds ~exp ~work =
  let items = sweep_items seed in
  let n = ref 0 in
  rotations ~seconds
    (List.init (Array.length items) Fun.id)
    (fun item ->
      let id = attempt () in
      let dir = Filename.concat work (Printf.sprintf "sweep-cache-%d" !n) in
      incr n;
      rm_rf dir;
      between_requests ();
      let req =
        sweep_req ~seed ~benches:[ items.(item) ] ~axes:sweep_axes ~scale:sweep_scale ~jobs:sweep_jobs
          (Some dir)
      in
      let t0 = now () in
      let r = Api.Exec.exec (Api.Exec.one_shot_env ()) req in
      let lat = now () -. t0 in
      let instrs, _, _ = check_sweep ~req:id ~exp ~seed r in
      rm_rf dir;
      { item; t0; lat; instrs })

type sweep_counts = { mutable simulated : int; mutable hits : int }

(* One sweep with its stages pulled forward: prepare and trace the
   benchmark, simulate every point, then run the sweep itself on that warm
   context, so it only looks up, writes the cache and renders. The cycle
   loop of every point is then re-run from outside and must equal the
   sweep's own result. *)
let sweep_traced sp ~seed ~exp ~work ~(counts : sweep_counts) n bench =
  let id = traced_request () in
  let dir = Filename.concat work (Printf.sprintf "sweep-cache-t%d" n) in
  rm_rf dir;
  let preset = U.Config.preset_of_kind U.Config.Braid_exec in
  let axes = List.map (fun s -> Result.get_ok (Dse.Axis.of_spec s)) sweep_axes in
  let points = Result.get_ok (Dse.Grid.expand ~base:preset ~mode:Dse.Grid.Cartesian axes) in
  let pr = W.Spec.find bench in
  let env = Api.Exec.one_shot_env () in
  let ctx = env.Api.Exec.ctx in
  let prepare (cfg : U.Config.t) =
    Sim.Suite.prepare ctx ~seed ~scale:sweep_scale ~ext_usable:(Dse.Sweep.ext_usable_of cfg) pr
  in
  let r =
    Spans.with_ sp ~req:id "request" (fun root ->
        let span name f = Spans.with_ sp ~parent:root ~req:id name f in
        let p = span "sim.prepare" (fun _ -> (prepare (List.hd points).Dse.Grid.config, 0)) in
        span "isa.trace" (fun _ -> ((), Trace.length (p.Sim.Suite.braid_trace ())));
        List.iter
          (fun (pt : Dse.Grid.point) ->
            span "uarch.sim" (fun _ ->
                let cfg = pt.Dse.Grid.config in
                (ignore (Sim.Suite.run_braid ctx (prepare cfg) cfg), 0)))
          points;
        ( span "dse.sweep" (fun _ ->
              ( Api.Exec.exec env
                  (sweep_req ~seed ~benches:[ bench ] ~axes:sweep_axes ~scale:sweep_scale
                     ~jobs:sweep_jobs (Some dir)),
                0 )),
          0 ))
  in
  let _, simulated, hits = check_sweep ~req:id ~exp ~seed r in
  counts.simulated <- counts.simulated + simulated;
  counts.hits <- counts.hits + hits;
  rm_rf dir;
  List.iter
    (fun (pt : Dse.Grid.point) ->
      let cfg = pt.Dse.Grid.config in
      let p = prepare cfg in
      let swept = Sim.Suite.run_braid ctx p cfg in
      let stepped =
        Spans.with_ sp ~req:id "check.core" (fun root ->
            (step_core sp ~parent:root ~req:id ~warm_data:p.Sim.Suite.warm_data cfg (p.Sim.Suite.braid_trace ()), 0))
      in
      if stepped <> swept then
        fail ~req:id "sweep %s/%s: stepped Core result differs from Pipeline.run" cfg.U.Config.name bench)
    points

(* --- serve --- *)

type served = {
  s_id : int;
  s_run : bool;  (** connection A's run; otherwise B's sweep *)
  s_item : int;
  sent : float;
  recv : float;
  reply : (Resp.payload, string) result;
}

let serve_items seed = Array.of_list (shuffle seed (pairs cold_benches all_kinds))

let serve_sweep ~seed =
  sweep_req ~seed ~benches:serve_sweep_benches ~axes:serve_sweep_axes ~scale:serve_scale ~jobs:1 None

let serve_request ~seed ~run item =
  if run then run_req ~seed ~scale:serve_scale (serve_items seed).(item) else serve_sweep ~seed

(* Connection A sends whole rotations of cold runs until [seconds] have
   passed; connection B sends the memoised sweep until A is done. Each on
   its own thread, so exactly two requests can be in the daemon.

   The host speed is sampled between A's requests, as between in-process
   ones, but only with the daemon idle: while a sample is due, A sends
   nothing and B, once its request in flight is answered, waits. So the
   samples see the host as the other workloads' do, and B gets no turns
   that A would have contested. *)
let serve_loop ~addr ~seed ~seconds =
  let items = serve_items seed in
  let a_done = Atomic.make false in
  let m = Mutex.create () and quiet = Condition.create () in
  let calibrating = ref false and b_busy = ref false in
  let locked f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  let calibrate () =
    if Option.fold ~none:false ~some:Calib.due !cal then begin
      locked (fun () ->
          calibrating := true;
          while !b_busy do
            Condition.wait quiet m
          done);
      tick ();
      locked (fun () ->
          calibrating := false;
          Condition.broadcast quiet)
    end
  in
  let b_enter () =
    locked (fun () ->
        while !calibrating do
          Condition.wait quiet m
        done;
        b_busy := true)
  in
  let b_leave () =
    locked (fun () ->
        b_busy := false;
        Condition.broadcast quiet)
  in
  let one client ~run item =
    if run then calibrate () else b_enter ();
    let s_id = attempt () in
    let req = serve_request ~seed ~run item in
    let sent = now () in
    let reply =
      Fun.protect
        ~finally:(fun () -> if not run then b_leave ())
        (fun () -> Api.Client.request client req)
    in
    { s_id; s_run = run; s_item = item; sent; recv = now (); reply }
  in
  (* a thread's exception is re-raised once both have been joined *)
  let failure = ref None in
  let guard f () = try f () with e -> failure := Some e in
  let connect () =
    match Api.Client.connect addr with Ok c -> c | Error e -> failwith ("connect: " ^ e)
  in
  let a_out = ref [] and b_out = ref [] in
  let with_client f =
    let c = connect () in
    Fun.protect ~finally:(fun () -> Api.Client.close c) (fun () -> f c)
  in
  let a =
    Thread.create
      (guard (fun () ->
           Fun.protect
             ~finally:(fun () -> Atomic.set a_done true)
             (fun () ->
               with_client (fun c ->
                   a_out :=
                     rotations ~seconds
                       (List.init (Array.length items) Fun.id)
                       (one c ~run:true)))))
      ()
  in
  let b =
    Thread.create
      (guard (fun () ->
           with_client (fun c ->
               while not (Atomic.get a_done) do
                 b_out := one c ~run:false 0 :: !b_out
               done)))
      ()
  in
  Thread.join a;
  Thread.join b;
  (* the sample after the last requests, with the daemon idle *)
  tick ();
  Option.iter raise !failure;
  !a_out @ List.rev !b_out

(* Served text must equal the in-process Exec.exec text for the same
   request, byte for byte. *)
let check_served ~seed served =
  let memo = Hashtbl.create 32 in
  let local run item =
    match Hashtbl.find_opt memo (run, item) with
    | Some r -> r
    | None ->
        let r = Api.Exec.exec (Api.Exec.one_shot_env ()) (serve_request ~seed ~run item) in
        Hashtbl.replace memo (run, item) r;
        r
  in
  let text = function
    | Ok (Resp.Run_done { text; _ }) -> Ok text
    | Ok (Resp.Sweep_done { text; doc; _ }) -> Ok (text ^ doc)
    | Ok _ -> Error "unexpected payload"
    | Error m -> Error m
  in
  List.iter
    (fun s ->
      let what = if s.s_run then "served run " ^ key (serve_items seed).(s.s_item) else "served sweep" in
      match (text s.reply, text (local s.s_run s.s_item)) with
      | Ok a, Ok b when a = b -> ()
      | Ok _, Ok _ -> fail ~req:s.s_id "%s seed %d: text differs from in-process Exec.exec" what seed
      | Error m, _ -> fail ~req:s.s_id "%s seed %d: %s" what seed m
      | _, Error m -> fail ~req:s.s_id "%s seed %d: in-process: %s" what seed m)
    served

let served_instrs s =
  match s.reply with
  | Ok (Resp.Run_done { text; _ }) when s.s_run -> Option.value ~default:0 (text_int text "instructions")
  | _ -> 0

(* Head-of-line split, rebuilt from client timestamps: with one executor
   and one request in flight per connection, a request sent while the
   other connection's request was in flight waits until that one is
   answered; the rest of its latency is service. *)
let wait_of served s =
  let other =
    List.find_opt (fun o -> o.s_run <> s.s_run && o.sent < s.sent && s.sent < o.recv) served
  in
  match other with Some o -> Float.min o.recv s.recv -. s.sent | None -> 0.0

let serve_spans sp ~seed served =
  List.iter
    (fun s ->
      let cls = if s.s_run then "run" else "sweep" in
      let root = Spans.add sp ~req:s.s_id ~t0:s.sent ~t1:s.recv "request" in
      let w = wait_of served s in
      ignore (Spans.add sp ~parent:root ~req:s.s_id ~t0:s.sent ~t1:(s.sent +. w) ("api.wait." ^ cls));
      ignore (Spans.add sp ~parent:root ~req:s.s_id ~t0:(s.sent +. w) ~t1:s.recv ("api.service." ^ cls));
      (* the codecs the client and daemon run on this request and reply,
         timed here on the same values *)
      match s.reply with
      | Ok payload ->
          let req = serve_request ~seed ~run:s.s_run s.s_item in
          Spans.with_ sp ~req:s.s_id "api.codec" (fun _ ->
              ignore (Req.of_json (Req.to_json req));
              ignore (Resp.of_json (Resp.to_json (Resp.Done { id = s.s_id; payload })));
              ((), 0))
      | Error _ -> ())
    served


(* --- per-layer metrics from a traced pass --- *)

type extras = {
  untraced_mean : float;  (** mean scaled request time of the untraced pass *)
  traced_mean : float option;  (** the traced pass's, where no request span gives it *)
  dse_simulated : float;  (** per sweep request *)
  dse_hits : float;
  replay : replay;
  ipc_err_max : float;
}

let layer_metrics sp x =
  let st = Spans.self_times (Spans.spans sp) in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun ((s : Spans.span), _) -> Hashtbl.replace by_id s.Spans.id s) st;
  let rec root (s : Spans.span) =
    match s.Spans.parent with Some p -> root (Hashtbl.find by_id p) | None -> s
  in
  let in_request (s, _) = (root s).Spans.name = "request" in
  let named n = List.filter (fun ((s : Spans.span), _) -> s.Spans.name = n) st in
  let reqs = named "request" in
  let nreq = float_of_int (List.length reqs) in
  let dur_of l = sum (List.map (fun (s, _) -> Spans.dur s) l) in
  let work_of l = float_of_int (List.fold_left (fun a ((s : Spans.span), _) -> a + s.Spans.work) 0 l) in
  (* Busy time inside requests is every span's self time; a request
     root's own self time is the part no layer span covers. Shares are
     taken of busy time, so they sum to 1 even where two domains work
     at once. *)
  let busy = sum (List.map snd (List.filter in_request st)) in
  let self_in layer =
    sum (List.map snd (List.filter (fun ((s, _) as x) -> in_request x && Spans.layer s = layer) st))
  in
  let per_req l = ratio (dur_of l) nreq in
  let scaled_dur ((s : Spans.span), _) = Spans.dur s *. scale_over ~t0:s.Spans.t0 ~t1:s.Spans.t1 in
  let mean_ms l = 1e3 *. ratio (dur_of l) (float_of_int (List.length l)) in
  let traces = List.filter in_request (named "isa.trace") in
  let step kind =
    let l = named ("uarch.step." ^ kind_name kind) in
    ("uarch.step_ns." ^ kind_name kind, "ns", 1e9 *. ratio (dur_of l) (work_of l))
  in
  [
    ("workload.gen_s", "s", per_req (named "workload.gen"));
    ("core.compile_s", "s", per_req (named "core.compile"));
    ("isa.trace_s", "s", per_req traces);
    ("isa.trace_minstr_per_s", "Minstr/s", ratio (work_of traces) (dur_of traces) /. 1e6);
    ("isa.trace_frac", "fraction", ratio (self_in "isa") busy);
    ("uarch.sim_s", "s", ratio (self_in "uarch") nreq);
    ("uarch.sim_frac", "fraction", ratio (self_in "uarch") busy);
  ]
  @ List.map step all_kinds
  @ [
      ("uarch.create_ms", "ms", mean_ms (named "uarch.create"));
      ("sim.prepare_s", "s", ratio (self_in "sim") nreq);
      ("dse.simulated", "count", x.dse_simulated);
      ("dse.cache_hits", "count", x.dse_hits);
      ("sample.plan_s", "s", per_req (named "sample.plan"));
      ("sample.measure_s", "s", per_req (named "sample.measure"));
      ("sample.rep_ms", "ms", mean_ms (named "sample.rep"));
      ("sample.ff_s", "s", per_req (named "sample.ff"));
      ("sample.warm_trace_s", "s", per_req (named "sample.warm_trace"));
      ("sample.window_sim_s", "s", per_req (named "sample.window_sim"));
      ("sample.detail_frac", "fraction", ratio (float_of_int x.replay.detail) (float_of_int x.replay.total));
      ("sample.ipc_err_max", "fraction", x.ipc_err_max);
      ("api.service_ms.run", "ms", mean_ms (named "api.service.run"));
      ("api.service_ms.sweep", "ms", mean_ms (named "api.service.sweep"));
      ("api.wait_ms.run", "ms", mean_ms (named "api.wait.run"));
      ("api.wait_ms.sweep", "ms", mean_ms (named "api.wait.sweep"));
      ("api.codec_us", "us", 1e3 *. mean_ms (named "api.codec"));
      ("bench.traced_requests", "count", nreq);
      ("bench.unattributed_frac", "fraction", ratio (self_in "request") busy);
      ( "bench.overhead_frac",
        "fraction",
        ratio (Option.value x.traced_mean ~default:(mean (List.map scaled_dur reqs))) x.untraced_mean
        -. 1.0 );
    ]

(* --- the workloads, end to end --- *)

(* End-to-end figures of the untraced pass, taken over a typical rotation
   of the workload's primary requests: each request at its median time
   over the run's rotations, so a host-speed spell that slows one
   rotation's requests moves the figures little. Times are scaled to the
   reference host speed, except set-up (process launch barely moves with
   the host's speed spells). *)
type e2e = {
  setup_s : float;
  requests : int;  (** in a rotation *)
  instrs : int;  (** instructions in a rotation's answers *)
  rotation_s : float;
  raw_rotation_s : float;  (** [rotation_s] unscaled *)
  rss_mb : float;
}

let median = quantile 0.5

let typical ~setup_s ~rss_mb samples =
  let by_item = Hashtbl.create 32 in
  List.iter
    (fun (s : sample) ->
      Hashtbl.replace by_item s.item (s :: Option.value ~default:[] (Hashtbl.find_opt by_item s.item)))
    samples;
  let per_item f = Hashtbl.fold (fun _ l acc -> acc +. median (List.map f l)) by_item 0.0 in
  {
    setup_s;
    requests = Hashtbl.length by_item;
    instrs = Hashtbl.fold (fun _ l acc -> acc + (List.hd l : sample).instrs) by_item 0;
    rotation_s = per_item scaled;
    raw_rotation_s = per_item (fun (s : sample) -> s.lat);
    rss_mb;
  }

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  braidsim : string;
  work : string;
  exp : Expect.t;
}

(* Launch [n] daemons one after another, each until its first status
   reply; all but the last are shut down again. *)
let launch_daemons c n =
  let log = Filename.concat c.work "daemon.log" in
  let rec up i times =
    let socket = Filename.concat c.work (Printf.sprintf "serve-%d.sock" i) in
    let d, cl, dt = Daemon.launch ~braidsim:c.braidsim ~socket ~log in
    if i + 1 < n then begin
      Daemon.shutdown d cl;
      up (i + 1) (dt :: times)
    end
    else (d, cl, median (dt :: times))
  in
  up 0 []

let measure_setup c =
  if c.trace then 0.0
  else
    let d, cl, s = launch_daemons c setup_launches in
    Daemon.shutdown d cl;
    s

let of_pass ~setup_s samples = typical ~setup_s ~rss_mb:(Daemon.peak_rss_mb 0) samples
let raw_minstr_per_s e = float_of_int e.instrs /. e.raw_rotation_s /. 1e6

let mean_lat samples = mean (List.map scaled samples)
let worst errs = List.fold_left Float.max 0.0 errs
let no_replay () = { detail = 0; total = 0 }

let extras ?(sim = 0.0) ?(hits = 0.0) ?(replay = no_replay ()) ?(errs = []) ?traced_mean untraced_mean =
  { untraced_mean; traced_mean; dse_simulated = sim; dse_hits = hits; replay; ipc_err_max = worst errs }

(* Each workload's own figures, printed by name in raw host time. *)
let say fmt = Printf.printf (fmt ^^ "\n")

let cold_run c sp =
  let setup_s = measure_setup c in
  let p = cold_untraced ~seed:c.seed ~seconds:c.seconds ~exp:c.exp in
  tick ();
  let e = of_pass ~setup_s p in
  say "run_p50_s %.4f s, run_minstr_per_s %.4f Minstr/s over %d runs"
    (median (List.map (fun (s : sample) -> s.lat) p))
    (raw_minstr_per_s e) (List.length p);
  if not c.trace then (e, [])
  else begin
    let items = cold_items c.seed in
    List.iter (fun s -> cold_traced sp ~seed:c.seed ~exp:c.exp items.(s.item)) p;
    (e, layer_metrics sp (extras (mean_lat p)))
  end

let sampled c sp =
  let setup_s = measure_setup c in
  let errs = ref [] in
  let p = sampled_untraced ~seed:c.seed ~seconds:c.seconds ~exp:c.exp ~errs in
  tick ();
  let e = of_pass ~setup_s p in
  say "sampled_minstr_per_s %.4f Minstr/s over %d runs, sampled_ipc_err_max %.5f"
    (raw_minstr_per_s e) (List.length p) (worst !errs);
  if not c.trace then (e, [])
  else begin
    let items = sampled_items c.seed in
    let replay = no_replay () in
    List.iter
      (fun s -> sampled_traced sp ~seed:c.seed ~exp:c.exp ~errs:(ref []) ~acc:replay items.(s.item))
      p;
    (e, layer_metrics sp (extras ~replay ~errs:!errs (mean_lat p)))
  end

let sweep c sp =
  let setup_s = measure_setup c in
  let p = sweep_untraced ~seed:c.seed ~seconds:c.seconds ~exp:c.exp ~work:c.work in
  tick ();
  let e = of_pass ~setup_s p in
  say "sweep_jobs_per_s %.4f 1/s over %d sweeps"
    (float_of_int (sweep_points * e.requests) /. e.raw_rotation_s)
    (List.length p);
  if not c.trace then (e, [])
  else begin
    let counts = { simulated = 0; hits = 0 } in
    let items = sweep_items c.seed in
    List.iteri (fun n s -> sweep_traced sp ~seed:c.seed ~exp:c.exp ~work:c.work ~counts n items.(s.item)) p;
    let k = float_of_int (List.length p) in
    ( e,
      layer_metrics sp
        (extras ~sim:(float_of_int counts.simulated /. k) ~hits:(float_of_int counts.hits /. k) (mean_lat p))
    )
  end

let serve c sp =
  let d, cl, setup_s = launch_daemons c (if c.trace then 1 else setup_launches) in
  let loop () = serve_loop ~addr:d.Daemon.addr ~seed:c.seed ~seconds:c.seconds in
  let served, rss, traced =
    Fun.protect
      ~finally:(fun () -> Daemon.shutdown d cl)
      (fun () ->
        (* B's sweep is answered from the daemon's memoised context from
           its second time on; the first, cold one is set-up *)
        ignore (Api.Client.request cl (serve_sweep ~seed:c.seed));
        let untraced = loop () in
        let rss = Daemon.peak_rss_mb d.Daemon.pid in
        (untraced, rss, if c.trace then Some (loop ()) else None))
  in
  check_served ~seed:c.seed served;
  Option.iter (check_served ~seed:c.seed) traced;
  let lat s = s.recv -. s.sent in
  let a = List.filter (fun s -> s.s_run) served in
  let runs l = List.map lat (List.filter (fun s -> s.s_run) l) in
  let sweeps = List.map lat (List.filter (fun s -> not s.s_run) served) in
  (* A always has a request in flight, except while calibrating: its
     summed latency is the loop's busy time *)
  let wall = sum (List.map lat a) in
  (* the end-to-end figures are A's: its runs wait behind B's sweeps *)
  let e =
    typical ~setup_s ~rss_mb:rss
      (List.map (fun s -> { item = s.s_item; t0 = s.sent; lat = lat s; instrs = served_instrs s }) a)
  in
  say
    "setup_s %.4f s, serve_run_p50_ms %.3f, serve_run_p90_ms %.3f over %d runs, serve_sweep_p50_ms \
     %.3f, serve_sweep_p90_ms %.3f over %d sweeps, serve_req_per_s %.3f"
    setup_s
    (1e3 *. median (runs served))
    (1e3 *. quantile 0.9 (runs served))
    (List.length (runs served))
    (1e3 *. median sweeps)
    (1e3 *. quantile 0.9 sweeps)
    (List.length sweeps)
    (float_of_int (List.length served) /. wall);
  match traced with
  | None -> (e, [])
  | Some t ->
      serve_spans sp ~seed:c.seed t;
      (* overhead is taken over A's runs: how many sweeps B fits in
         between them is a race between the two client threads *)
      let a_mean l =
        mean (List.filter_map (fun s -> if s.s_run then Some (lat s *. scale_over ~t0:s.sent ~t1:s.recv) else None) l)
      in
      (e, layer_metrics sp (extras ~traced_mean:(a_mean t) (a_mean served)))

(* --- expected outputs --- *)

let regen ~seed ~dir =
  let e = Expect.empty seed in
  let exec r = Api.Exec.exec (Api.Exec.one_shot_env ()) r in
  let run pair r =
    match run_outcome ~req:0 ~what:(key pair) (exec r) with
    | Some (c, i, _, s) -> (c, i, s)
    | None -> failwith ("regen: " ^ key pair)
  in
  List.iter
    (fun pair ->
      let c, i, _ = run pair (run_req ~seed ~scale:cold_scale pair) in
      Hashtbl.replace e.Expect.cold_run (key pair) (c, i))
    (pairs cold_benches all_kinds);
  List.iter
    (fun bench ->
      match
        exec (sweep_req ~seed ~benches:[ bench ] ~axes:sweep_axes ~scale:sweep_scale ~jobs:sweep_jobs None)
      with
      | Ok (Resp.Sweep_done { doc; _ }) ->
          List.iter (fun (pt, b, c, _) -> Hashtbl.replace e.Expect.sweep (pt ^ "/" ^ b) c) (sweep_rows doc)
      | _ -> failwith ("regen: sweep " ^ bench))
    sweep_benches;
  List.iter
    (fun pair ->
      let _, _, s = run pair (run_req ~seed ~scale:sampled_scale ~sample:sample_req pair) in
      let c, i, _ = run pair (run_req ~seed ~scale:sampled_scale pair) in
      Hashtbl.replace e.Expect.sampled (key pair)
        ((Option.get s).Resp.sp_ipc, float_of_int i /. float_of_int (max 1 c)))
    (pairs cold_benches sampled_kinds);
  Expect.save ~dir e

(* --- command line and the result line --- *)

(* Kept out of tuning, so a later claim can be confirmed on a seed it was
   not written against. *)
let heldout_seed = 1009

(* The workload seed of a run: [seed] itself when its expected outputs are
   stored; otherwise the stored seed, held-out one excepted, that [seed]
   picks. So every seed gives the same requests each time, and every run's
   outputs are checked against stored values. *)
let workload_seed ~dir seed =
  if Sys.file_exists (Expect.path ~dir seed) then seed
  else
    match List.filter (( <> ) heldout_seed) (Expect.stored ~dir) with
    | [] -> seed
    | pool ->
        let n = List.length pool in
        let w = List.nth pool (((seed mod n) + n) mod n) in
        Printf.eprintf "perfbench: seed %d has no stored outputs; workload seed %d\n%!" seed w;
        w

let json_metrics l =
  String.concat ", "
    (List.map
       (fun (n, u, v) ->
         if Float.is_finite v then Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u
         else failwith ("metric " ^ n ^ " is not finite"))
       l)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let braidsim = ref "" and expected = ref "" and work = ref "" and do_regen = ref false in
  let calibrator = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "cold-run | sweep | sampled | serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "how long the measured loop runs");
      ("--trace", Arg.Set_int trace, "1: add a traced pass and print per-layer metrics");
      ("--braidsim", Arg.Set_string braidsim, "the braidsim executable (serve daemon)");
      ("--expected", Arg.Set_string expected, "directory of stored expected outputs");
      ("--work", Arg.Set_string work, "scratch directory");
      ("--regen", Arg.Set do_regen, "write the expected outputs of --seed and exit");
      ("--calibrator", Arg.Set calibrator, "run as the host-speed calibration helper");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 --braidsim EXE --expected DIR --work DIR";
  if !calibrator then Calib.serve ()
  else if !do_regen then regen ~seed:!seed ~dir:!expected
  else begin
    let seed = workload_seed ~dir:!expected !seed in
    let exp =
      match Expect.load ~dir:!expected seed with
      | Some e -> e
      | None ->
          Printf.eprintf
            "perfbench: no stored expected outputs for seed %d (%s); write them with `python3 \
             perfbench/run.py --regen --seed %d`\n%!"
            seed (Expect.path ~dir:!expected seed) seed;
          exit 1
    in
    let c =
      { workload = !workload; seed; seconds = !seconds; trace = !trace = 1; braidsim = !braidsim; work = !work; exp }
    in
    let sp = Spans.create () in
    let k = Calib.start ~exe:Sys.executable_name in
    cal := Some k;
    let e, layers =
      Fun.protect
        ~finally:(fun () -> Calib.stop k)
        (fun () ->
          match c.workload with
          | "cold-run" -> cold_run c sp
          | "sweep" -> sweep c sp
          | "sampled" -> sampled c sp
          | "serve" -> serve c sp
          | w -> failwith ("unknown workload " ^ w))
    in
    let per_request t = 1e3 *. t /. float_of_int (max 1 e.requests) in
    say "unscaled: mean_ms %.6f, minstr_per_s %.6f" (per_request e.raw_rotation_s) (raw_minstr_per_s e);
    say "host speed: times scaled by %.4f (median of %d calibration samples)" (Calib.scale k)
      (List.length k.Calib.samples);
    let failed = Hashtbl.length failed_reqs in
    let metrics =
      if c.trace then begin
        let path = Filename.concat c.work (Printf.sprintf "spans-%s-%d.json" c.workload c.seed) in
        Spans.write sp path;
        Printf.eprintf "perfbench: %d spans written to %s\n%!" (List.length (Spans.spans sp)) path;
        layers
      end
      else
        [
          ("setup_s", "s", e.setup_s);
          ("mean_ms", "ms", per_request e.rotation_s);
          ("minstr_per_s", "Minstr/s", float_of_int e.instrs /. e.rotation_s /. 1e6);
          ("peak_rss_mb", "MB", e.rss_mb);
          ("ok_frac", "fraction", 1.0 -. (float_of_int failed /. float_of_int (max 1 (Atomic.get attempted))));
        ]
    in
    List.iter (fun (n, u, v) -> Printf.printf "  %-26s %14.6f %s\n" n v u) metrics;
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      (failed = 0) (Atomic.get attempted) failed (json_metrics metrics)
  end

module C = Braid_core
module U = Braid_uarch
module W = Braid_workload
module Obs = Braid_obs
module Sim = Braid_sim
module Dse = Braid_dse
module Ck = Braid_check
module Rv = Braid_rv
module E = Sim.Experiments

type env = { ctx : Sim.Suite.ctx; max_jobs : int option }

let one_shot_env () = { ctx = Sim.Suite.create_ctx (); max_jobs = None }

let ( let* ) = Result.bind

let effective_jobs env requested =
  match env.max_jobs with
  | None -> requested
  | Some cap -> max 1 (min requested cap)

let find_bench name =
  match W.Spec.find name with
  | p -> Ok p
  | exception Not_found -> Error (Printf.sprintf "unknown benchmark %S" name)

let positive what n =
  if n > 0 then Ok n else Error (Printf.sprintf "%s must be positive (got %d)" what n)

let check_width w =
  if List.mem w [ 4; 8; 16 ] then Ok w
  else Error (Printf.sprintf "width must be 4, 8 or 16 (got %d)" w)

let spec_of_sample (s : Request.sample) =
  Braid_sample.Spec.validate
    {
      Braid_sample.Spec.interval = s.Request.sm_interval;
      max_k = s.Request.sm_max_k;
      warmup = s.Request.sm_warmup;
      seed = s.Request.sm_seed;
    }

(* a sampling request swaps the execution context, nothing else: every
   downstream consumer sees ordinary (extrapolated) pipeline results *)
let ctx_for env sample =
  match sample with
  | None -> Ok env.ctx
  | Some sm ->
      let* spec = spec_of_sample sm in
      Ok (Sim.Suite.create_ctx ~sample:spec ())

let machine_cfg ~core ~width =
  let cfg = U.Config.preset_of_kind core in
  if width = 8 then cfg else U.Config.scale_width cfg width

(* Only the rv front end compiles here: its program comes from the RV
   frontend, not from a prepared benchmark. *)
let binary_for core program =
  if U.Config.Core_kind.braid_binary core then
    (C.Transform.run program).C.Transform.program
  else (C.Transform.conventional program).C.Extalloc.program

(* run and trace prepare their benchmark in a ctx of their own: the
   daemon's shared [env.ctx] would keep one full trace per distinct
   (benchmark, seed, scale, binary) for its whole life. A run streams
   its trace (Suite.run_streamed); trace keeps it stored, since its
   timeline labels any uid. *)
let prepare_one ~(profile : W.Spec.profile) ~seed ~scale =
  let ctx = Sim.Suite.create_ctx () in
  (ctx, Sim.Suite.prepare ctx ~seed ~scale profile)

(* Wire a Runner/Sweep on_done hook to the caller's progress stream. The
   hook fires on worker domains: count and emission happen under one
   mutex so the stream of completion counts a client observes is strictly
   monotonic — an atomic counter alone lets two domains reorder between
   taking their count and emitting their frame. *)
let counted_progress progress ~total =
  match progress with
  | None -> None
  | Some f ->
      let completed = ref 0 in
      let m = Mutex.create () in
      Some
        (fun _i label ->
          Mutex.lock m;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock m)
            (fun () ->
              incr completed;
              f ~completed:!completed ~total ~label))

(* --- run --- *)

let pp_result b (res : U.Core.result) =
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "  instructions        %d\n" res.U.Core.instructions;
  pf "  cycles              %d\n" res.U.Core.cycles;
  pf "  IPC                 %.3f\n" res.U.Core.ipc;
  pf "  branch mispredicts  %d / %d lookups\n" res.U.Core.branch_mispredicts
    res.U.Core.branch_lookups;
  pf "  L1I/L1D/L2 misses   %d / %d / %d\n" res.U.Core.l1i_misses
    res.U.Core.l1d_misses res.U.Core.l2_misses;
  pf "  reg dispatch stalls %d\n" res.U.Core.dispatch_stall_regs;
  pf "  stalls (cycles)     redirect %d, icache %d, core %d, front-end %d\n"
    res.U.Core.stalls.U.Core.fetch_redirect
    res.U.Core.stalls.U.Core.fetch_icache
    res.U.Core.stalls.U.Core.dispatch_core
    res.U.Core.stalls.U.Core.dispatch_frontend;
  pf "  avg core occupancy  %.1f instructions\n" res.U.Core.avg_occupancy;
  let a = res.U.Core.activity in
  pf "  RF accesses         %d external, %d internal; %d bypassed values\n"
    (a.U.Machine.ext_rf_reads + a.U.Machine.ext_rf_writes)
    (a.U.Machine.int_rf_reads + a.U.Machine.int_rf_writes)
    a.U.Machine.bypass_values

let exec_run (r : Request.run) =
  let* profile = find_bench r.Request.r_bench in
  let* scale = positive "scale" r.Request.r_scale in
  let* width = check_width r.Request.r_width in
  let cfg = machine_cfg ~core:r.Request.r_core ~width in
  let prepare () = prepare_one ~profile ~seed:r.Request.r_seed ~scale in
  match r.Request.r_sample with
  | None ->
      let res = Sim.Suite.run_streamed (snd (prepare ())) cfg in
      let b = Buffer.create 1024 in
      Printf.ksprintf (Buffer.add_string b) "%s on %s\n" profile.W.Spec.name
        res.U.Core.config_name;
      pp_result b res;
      Ok (Response.Run_done { text = Buffer.contents b; sampled = None })
  | Some sm ->
      let* spec = spec_of_sample sm in
      let ctx, p = prepare () in
      let t = Sim.Suite.sample ctx p ~spec cfg in
      let res = t.Braid_sample.Driver.result in
      let b = Buffer.create 1024 in
      let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      pf "%s on %s (sampled: %s)\n" profile.W.Spec.name
        res.U.Core.config_name
        (Braid_sample.Spec.to_string spec);
      pp_result b res;
      let reps = List.length t.Braid_sample.Driver.reps in
      pf "  sampled             %d of %d intervals simulated\n" reps
        t.Braid_sample.Driver.num_intervals;
      let sp_error =
        if not sm.Request.sm_verify then None
        else begin
          let full = Sim.Suite.run_streamed p cfg in
          let e = Braid_sample.Driver.error_vs ~full t in
          pf "  full-simulation IPC %.3f (sampled error %.2f%%)\n"
            full.U.Core.ipc (100.0 *. e);
          Some e
        end
      in
      Ok
        (Response.Run_done
           {
             text = Buffer.contents b;
             sampled =
               Some
                 {
                   Response.sp_reps = reps;
                   sp_intervals = t.Braid_sample.Driver.num_intervals;
                   sp_ipc = t.Braid_sample.Driver.ipc;
                   sp_error;
                 };
           })

(* --- experiment --- *)

let exec_experiment ?progress env (e : Request.experiment) =
  let* scale = positive "scale" e.Request.e_scale in
  let* jobs = positive "jobs" e.Request.e_jobs in
  let* exps =
    List.fold_left
      (fun acc id ->
        let* acc = acc in
        match E.find id with
        | exp -> Ok (exp :: acc)
        | exception Not_found ->
            Error (Printf.sprintf "unknown experiment %S" id))
      (Ok []) e.Request.e_ids
    |> Result.map List.rev
  in
  let exps = match exps with [] -> E.all | exps -> exps in
  let* ctx = ctx_for env e.Request.e_sample in
  let on_done =
    counted_progress progress ~total:(Sim.Runner.experiment_job_count exps)
  in
  let results =
    Sim.Runner.run_experiments ?on_done ~ctx ~jobs:(effective_jobs env jobs)
      ~scale exps
  in
  let counters =
    if e.Request.e_counters then Some (E.counters_report ctx ~scale) else None
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (Sim.Report.render_full r);
      Buffer.add_char b '\n')
    results;
  Buffer.add_string b (Sim.Report.headline_summary results);
  Option.iter
    (fun cs -> Buffer.add_string b (Sim.Report.render_counters cs))
    counters;
  (* The document is deterministic, so a client and the one-shot CLI
     produce byte-identical files. The "jobs" field records the
     *requested* parallelism: output never depends on it. *)
  let doc = Sim.Report.to_json ?counters ~scale ~jobs results in
  Ok (Response.Experiment_done { text = Buffer.contents b; doc })

(* --- sweep --- *)

let exec_sweep ?progress env (s : Request.sweep) =
  let* scale = positive "scale" s.Request.s_scale in
  let* jobs = positive "jobs" s.Request.s_jobs in
  let* axes =
    List.fold_left
      (fun acc spec ->
        let* acc = acc in
        let* a = Dse.Axis.of_spec spec in
        Ok (a :: acc))
      (Ok []) s.Request.s_axes
    |> Result.map List.rev
  in
  let* benches =
    match s.Request.s_benches with
    | [] -> Ok W.Spec.all
    | names ->
        List.fold_left
          (fun acc n ->
            let* acc = acc in
            let* p = find_bench n in
            Ok (p :: acc))
          (Ok []) names
        |> Result.map List.rev
  in
  let* cache =
    match s.Request.s_cache_dir with
    | None -> Ok None
    | Some d -> Result.map Option.some (Dse.Cache.open_dir d)
  in
  let preset = U.Config.preset_of_kind s.Request.s_preset in
  let* points =
    Result.map_error
      (Printf.sprintf "invalid sweep grid: %s")
      (Dse.Grid.expand ~base:preset ~mode:s.Request.s_mode axes)
  in
  let* ctx = ctx_for env s.Request.s_sample in
  let on_done = counted_progress progress ~total:(Dse.Sweep.job_count ~benches points) in
  let outcome =
    Dse.Sweep.run ?cache ?on_done ~ctx
      ~jobs:(effective_jobs env jobs) ~seed:s.Request.s_seed ~scale ~benches
      points
  in
  let text = Dse.Frontier.render outcome in
  let doc =
    Dse.Frontier.to_json ~preset ~mode:s.Request.s_mode ~axes
      ~seed:s.Request.s_seed ~scale outcome
  in
  Ok
    (Response.Sweep_done
       {
         text;
         doc;
         simulated = outcome.Dse.Sweep.stats.Dse.Sweep.simulated;
         cache_hits = outcome.Dse.Sweep.stats.Dse.Sweep.cache_hits;
       })

(* Render a counter dump, one name per line — shared by trace --counters
   and cmp --counters (where the per-core "core<i>." prefixes keep the
   cores apart). *)
let render_counters dump =
  let cb = Buffer.create 1024 in
  Buffer.add_char cb '\n';
  List.iter
    (fun (name, v) ->
      Buffer.add_string cb
        (Printf.sprintf "%-26s %s\n" name (Sim.Report.render_counter_value v)))
    dump;
  Buffer.contents cb

(* --- trace --- *)

let exec_trace (t : Request.trace) =
  let* profile = find_bench t.Request.t_bench in
  let* scale = positive "scale" t.Request.t_scale in
  let* width = check_width t.Request.t_width in
  let* buffer = positive "buffer" t.Request.t_buffer in
  let cfg = machine_cfg ~core:t.Request.t_core ~width in
  let tracer = Obs.Tracer.create ~capacity:buffer () in
  let probe = U.Probe.create ~tracer ~invariants:false cfg in
  let _, p = prepare_one ~profile ~seed:t.Request.t_seed ~scale in
  let trace = Sim.Suite.trace p cfg in
  let c = U.Core.run ~probe ~warm_data:p.Sim.Suite.warm_data cfg trace in
  let r = U.Core.result c in
  let events = Obs.Tracer.events tracer in
  let label uid = Disasm.instr (Trace.static trace uid).Trace.instr in
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%s on %s: %d instructions, %d cycles, IPC %.3f\n" profile.W.Spec.name
    r.U.Core.config_name r.U.Core.instructions r.U.Core.cycles
    r.U.Core.ipc;
  pf "tracer: %d events retained, %d dropped (buffer %d)\n\n"
    (Obs.Tracer.length tracer)
    (Obs.Tracer.dropped tracer)
    (Obs.Tracer.capacity tracer);
  let from_cycle = t.Request.t_from and cycles = t.Request.t_cycles in
  (match Obs.Timeline.render ~from_cycle ~cycles ~label events with
  | "" ->
      pf
        "no instruction activity in cycles [%d, %d) — try --from/--cycles \
         (run length %d cycles)\n"
        from_cycle (from_cycle + cycles) r.U.Core.cycles
  | diagram -> Buffer.add_string b diagram);
  let* chrome =
    if not t.Request.t_chrome then Ok None
    else
      let chrome_label uid = Printf.sprintf "%d %s" uid (label uid) in
      let doc = Obs.Chrome.export ~label:chrome_label tracer in
      (* self-check with the same parser the test suite uses *)
      match Json.parse doc with
      | Error msg ->
          Error
            (Printf.sprintf "internal error: Chrome export is not valid JSON: %s"
               msg)
      | Ok _ ->
          let tracks =
            List.sort_uniq compare (List.map Obs.Tracer.track_of events)
          in
          Ok
            (Some
               {
                 Response.c_doc = doc;
                 c_events = List.length events;
                 c_tracks = List.length tracks;
               })
  in
  let counters_text =
    if not t.Request.t_counters then None
    else Some (render_counters (U.Core.counters c))
  in
  Ok (Response.Trace_done { text = Buffer.contents b; counters_text; chrome })

(* --- fuzz --- *)

let exec_fuzz (f : Request.fuzz) =
  let* count = positive "count" f.Request.f_count in
  let cores =
    match f.Request.f_cores with [] -> U.Config.Core_kind.all | cs -> cs
  in
  let outcome =
    Ck.Fuzz.run ~invariants:f.Request.f_invariants ~shrink:f.Request.f_shrink
      ~cores ~first_index:f.Request.f_index ~count ~seed:f.Request.f_seed ()
  in
  let core_names = String.concat "," (List.map U.Config.Core_kind.to_string cores) in
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let failures = List.length outcome.Ck.Fuzz.failures in
  if outcome.Ck.Fuzz.failures = [] then
    pf
      "fuzz: %d case(s) on [%s], seed %d: 0 divergences, 0 invariant \
       violations%s\n"
      outcome.Ck.Fuzz.tested core_names f.Request.f_seed
      (if f.Request.f_invariants then "" else " (monitor off)")
  else begin
    pf "fuzz: %d of %d case(s) FAILED on [%s], seed %d\n" failures
      outcome.Ck.Fuzz.tested core_names f.Request.f_seed;
    List.iter
      (fun (fl : Ck.Fuzz.failure) ->
        pf "\ncase %s\n%s"
          (Ck.Gen.describe fl.Ck.Fuzz.case)
          (Ck.Oracle.render fl.Ck.Fuzz.report);
        match fl.Ck.Fuzz.shrunk with
        | None -> ()
        | Some (reduced, rep) ->
            pf "shrunk to %s\n%s" (Ck.Gen.describe reduced)
              (Ck.Oracle.render rep);
            let program, _ = Ck.Gen.build reduced in
            pf "reproducer (virtual IR):\n%s" (Disasm.program program))
      outcome.Ck.Fuzz.failures
  end;
  Ok
    (Response.Fuzz_done
       { text = Buffer.contents b; tested = outcome.Ck.Fuzz.tested; failures })

(* --- rv --- *)

let exec_rv (v : Request.rv) =
  let* img =
    Result.map_error
      (fun e -> "rv image: " ^ Rv.Image.error_to_string e)
      (Rv.Image.of_hex v.Request.v_hex)
  in
  let* t =
    Result.map_error
      (fun e -> "rv translate: " ^ Rv.Translate.error_to_string e)
      (Rv.Translate.run img)
  in
  let cores =
    match v.Request.v_cores with [] -> U.Config.Core_kind.all | cs -> cs
  in
  let rv = Rv.Emu.run img in
  let program = t.Rv.Translate.program and init_mem = t.Rv.Translate.init_mem in
  let ir = Emulator.run ~trace:false ~init_mem program in
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%s: %d bytes, %d reachable rv instructions -> %d IR instructions\n"
    img.Rv.Image.name (Rv.Image.size img) t.Rv.Translate.rv_count
    t.Rv.Translate.ir_count;
  pf "reference: %s after %d instructions\n"
    (Rv.Emu.stop_to_string rv.Rv.Emu.stop)
    rv.Rv.Emu.steps;
  if rv.Rv.Emu.output <> "" then pf "output: %s\n" (String.escaped rv.Rv.Emu.output);
  pf "translated: %d IR instructions retired\n" ir.Emulator.dynamic_count;
  List.iter
    (fun core ->
      let cfg = U.Config.preset_of_kind core in
      let out = Emulator.run ~init_mem (binary_for core program) in
      let trace = Option.get out.Emulator.trace in
      let r = U.Core.result (U.Core.run ~warm_data:(List.map fst init_mem) cfg trace) in
      pf "  %-24s %8d cycles, IPC %.3f\n" r.U.Core.config_name
        r.U.Core.cycles r.U.Core.ipc)
    cores;
  let* oracle_ok =
    if not v.Request.v_oracle then Ok None
    else
      match Ck.Rv_oracle.check ~cores img with
      | Error e -> Error ("rv oracle: " ^ Rv.Translate.error_to_string e)
      | Ok rep ->
          let agree = Ck.Rv_oracle.ok rep in
          if agree then
            pf "oracle: ok — reference, translated and all cores agree\n"
          else Buffer.add_string b (Ck.Rv_oracle.render rep);
          Ok (Some agree)
  in
  Ok
    (Response.Rv_done
       {
         text = Buffer.contents b;
         output = rv.Rv.Emu.output;
         exit_code =
           (match rv.Rv.Emu.stop with Rv.Emu.Exited c -> Some c | _ -> None);
         rv_dynamic = rv.Rv.Emu.steps;
         ir_dynamic = ir.Emulator.dynamic_count;
         oracle_ok;
       })

(* --- cmp --- *)

let exec_cmp env (c : Request.cmp) =
  let* scale = positive "scale" c.Request.c_scale in
  let* width = check_width c.Request.c_width in
  let* () =
    if c.Request.c_benches = [] then Error "at least one benchmark is required"
    else Ok ()
  in
  let* (_ : W.Spec.profile list) =
    List.fold_left
      (fun acc n ->
        let* acc = acc in
        let* p = find_bench n in
        Ok (p :: acc))
      (Ok []) c.Request.c_benches
  in
  let cfg = machine_cfg ~core:c.Request.c_core ~width in
  let* cmp =
    U.Config.Cmp.validate
      (U.Config.Cmp.make ~l2:c.Request.c_l2 ~cores:c.Request.c_cores
         ~workloads:c.Request.c_benches ())
  in
  (* the env's suite ctx memoises preparations, so a daemon serves
     repeats from warm traces while producing the one-shot bytes *)
  let r = Braid_cmp.Cmp_bench.run env.ctx ~seed:c.Request.c_seed ~scale ~cfg cmp in
  let* () =
    match r.Braid_cmp.Cmp.violations with
    | [] -> Ok ()
    | vs ->
        Error
          (Printf.sprintf "internal error: coherence violation: %s"
             (String.concat "; " vs))
  in
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cmp: %d cores of %s, shared %dKB L2 (rate mode)\n"
    cmp.U.Config.Cmp.cores cfg.U.Config.name
    (cmp.U.Config.Cmp.l2.U.Config.size_bytes / 1024);
  pf "  %-4s %-10s %10s %13s %6s %8s\n" "core" "bench" "cycles" "instructions"
    "IPC" "slowdown";
  List.iter
    (fun (cr : Braid_cmp.Cmp.core_result) ->
      pf "  %-4d %-10s %10d %13d %6.3f %8.3f\n" cr.Braid_cmp.Cmp.core_id
        cr.Braid_cmp.Cmp.bench cr.Braid_cmp.Cmp.result.U.Core.cycles
        cr.Braid_cmp.Cmp.result.U.Core.instructions
        cr.Braid_cmp.Cmp.result.U.Core.ipc cr.Braid_cmp.Cmp.slowdown)
    r.Braid_cmp.Cmp.cores;
  pf "  aggregate IPC       %.3f\n" r.Braid_cmp.Cmp.aggregate_ipc;
  pf "  weighted speedup    %.3f\n" r.Braid_cmp.Cmp.weighted_speedup;
  pf "  global cycles       %d\n" r.Braid_cmp.Cmp.cycles;
  pf "  shared L2           %d hits, %d misses\n" r.Braid_cmp.Cmp.l2_hits
    r.Braid_cmp.Cmp.l2_misses;
  let coh = r.Braid_cmp.Cmp.coherence in
  pf "  coherence           %d invalidations, %d downgrades, %d writebacks, %d remote hits\n"
    coh.U.Mem_hier.invalidations coh.U.Mem_hier.downgrades
    coh.U.Mem_hier.writebacks coh.U.Mem_hier.remote_hits;
  let counters_text =
    if not c.Request.c_counters then None
    else Some (render_counters (Braid_cmp.Cmp.counters r))
  in
  Ok
    (Response.Cmp_done
       {
         text = Buffer.contents b;
         aggregate_ipc = r.Braid_cmp.Cmp.aggregate_ipc;
         weighted_speedup = r.Braid_cmp.Cmp.weighted_speedup;
         cycles = r.Braid_cmp.Cmp.cycles;
         invalidations = coh.U.Mem_hier.invalidations;
         downgrades = coh.U.Mem_hier.downgrades;
         writebacks = coh.U.Mem_hier.writebacks;
         remote_hits = coh.U.Mem_hier.remote_hits;
         counters_text;
       })

(* --- dispatch --- *)

let exec ?progress env request =
  (* a raising job (or any internal bug) rejects this request only: the
     daemon's executor loop and every other queued request stay alive *)
  try
    match request with
    | Request.Run r -> exec_run r
    | Request.Experiment e -> exec_experiment ?progress env e
    | Request.Sweep s -> exec_sweep ?progress env s
    | Request.Trace t -> exec_trace t
    | Request.Fuzz f -> exec_fuzz f
    | Request.Rv v -> exec_rv v
    | Request.Cmp c -> exec_cmp env c
    | Request.Status | Request.Cancel _ | Request.Shutdown ->
        Error
          (Printf.sprintf "op %S is only served by a running daemon"
             (Request.op_name request))
  with
  | Sim.Runner.Job_failed { label; error } ->
      Error (Printf.sprintf "job %s failed: %s" label (Printexc.to_string error))
  | e -> Error ("internal error: " ^ Printexc.to_string e)

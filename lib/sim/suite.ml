type prepared = {
  profile : Braid_workload.Spec.profile;
  init_mem : (int * int64) list;
  warm_data : int list;
  virtual_ir : Program.t;
  conventional : Braid_core.Extalloc.result;
  braid : Braid_core.Transform.report;
  scale : int;
  key : string;
  conv_trace : unit -> Trace.t;
  braid_trace : unit -> Trace.t;
}

let default_scale = 12_000

type 'v slot = Ready of 'v | In_flight

type ctx = {
  lock : Mutex.t;
  done_ : Condition.t;
  prepared : (string, prepared slot) Hashtbl.t;
  traces : (string, Trace.t slot) Hashtbl.t;
  runs : (string, Braid_uarch.Core.result slot) Hashtbl.t;
  plans : (string, Braid_sample.Driver.plan slot) Hashtbl.t;
  samples : (string, Braid_sample.Driver.t slot) Hashtbl.t;
  sample : Braid_sample.Spec.t option;
}

let create_ctx ?sample () =
  {
    lock = Mutex.create ();
    done_ = Condition.create ();
    prepared = Hashtbl.create 64;
    traces = Hashtbl.create 64;
    runs = Hashtbl.create 256;
    plans = Hashtbl.create 64;
    samples = Hashtbl.create 256;
    sample;
  }

let sampling ctx = ctx.sample

(* Look up under the lock; on a miss, mark the key in-flight and compute
   *outside* the lock (simulations are long and must overlap across
   domains). A domain that finds the key in-flight blocks on the condition
   variable rather than duplicating the work; every caller shares one
   physical value. Nesting only flows one way (runs force traces, samples
   force plans; never the reverse), so waiting cannot deadlock. If the
   computation raises, the in-flight marker is withdrawn and a waiter
   takes over. *)
let rec memoise : 'v. ctx -> (string, 'v slot) Hashtbl.t -> string -> (unit -> 'v) -> 'v =
  fun ctx tbl key compute ->
  Mutex.lock ctx.lock;
  match Hashtbl.find_opt tbl key with
  | Some (Ready v) ->
      Mutex.unlock ctx.lock;
      v
  | Some In_flight ->
      Condition.wait ctx.done_ ctx.lock;
      Mutex.unlock ctx.lock;
      memoise ctx tbl key compute
  | None -> (
      Hashtbl.replace tbl key In_flight;
      Mutex.unlock ctx.lock;
      match compute () with
      | v ->
          Mutex.lock ctx.lock;
          Hashtbl.replace tbl key (Ready v);
          Condition.broadcast ctx.done_;
          Mutex.unlock ctx.lock;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock ctx.lock;
          Hashtbl.remove tbl key;
          Condition.broadcast ctx.done_;
          Mutex.unlock ctx.lock;
          Printexc.raise_with_backtrace e bt)

let trace_of ~init_mem ~scale program =
  let out = Emulator.run ~max_steps:(50 * scale) ~trace:true ~init_mem program in
  match out.Emulator.trace with Some t -> t | None -> assert false

let prepare ctx ?(seed = 1) ?(scale = default_scale)
    ?(max_internal = Reg.num_internal)
    ?(ext_usable = Braid_core.Extalloc.usable_per_class)
    (profile : Braid_workload.Spec.profile) =
  let key =
    Printf.sprintf "%s/%d/%d/%d/%d" profile.Braid_workload.Spec.name seed scale
      max_internal ext_usable
  in
  memoise ctx ctx.prepared key (fun () ->
      let virtual_ir, init_mem =
        Braid_workload.Spec.generate profile ~seed ~scale
      in
      let conventional = Braid_core.Transform.conventional virtual_ir in
      let braid =
        Braid_core.Transform.run ~max_internal
          ~ext_usable:(min ext_usable Braid_core.Extalloc.usable_per_class)
          virtual_ir
      in
      (* Traces are memoised thunks rather than eager fields: a sampled
         run never touches them, and full tracing is the expensive part
         of preparation (an order of magnitude slower than untraced
         emulation), so sampled contexts skip that cost entirely. *)
      let lazy_trace label program =
        let tkey = key ^ "/" ^ label in
        fun () ->
          memoise ctx ctx.traces tkey (fun () -> trace_of ~init_mem ~scale program)
      in
      {
        profile;
        init_mem;
        warm_data = List.map fst init_mem;
        virtual_ir;
        conventional;
        braid;
        scale;
        key;
        conv_trace =
          lazy_trace "conv" conventional.Braid_core.Extalloc.program;
        braid_trace = lazy_trace "braid" braid.Braid_core.Transform.program;
      })

let braid_binary (cfg : Braid_uarch.Config.t) =
  Braid_uarch.Config.Core_kind.braid_binary cfg.Braid_uarch.Config.kind

let trace p cfg = (if braid_binary cfg then p.braid_trace else p.conv_trace) ()

(* The binary [cfg.kind] runs, and its label in memo keys. *)
let binary p cfg =
  if braid_binary cfg then ("braid", p.braid.Braid_core.Transform.program)
  else ("conv", p.conventional.Braid_core.Extalloc.program)

(* Memo keys are content, so a hit may have been computed under another
   name: the result carries the caller's. *)
let renamed (cfg : Braid_uarch.Config.t) (r : Braid_uarch.Core.result) =
  { r with Braid_uarch.Core.config_name = cfg.Braid_uarch.Config.name }

(* The plan (fast-forward + BBV + clustering) is core-independent: one
   per (preparation, binary, spec) serves every configuration. *)
let sample_plan ctx p (spec : Braid_sample.Spec.t) cfg =
  let label, program = binary p cfg in
  let key = String.concat "/" [ p.key; label; Braid_sample.Spec.digest spec ] in
  memoise ctx ctx.plans key (fun () ->
      Braid_sample.Driver.plan ~init_mem:p.init_mem ~max_steps:(50 * p.scale)
        ~spec
        (Emulator.Compiled.compile program))

let run_key p cfg = p.key ^ "/" ^ Braid_uarch.Config.digest cfg

let sample ctx p ~spec cfg =
  let key = run_key p cfg ^ "/" ^ Braid_sample.Spec.digest spec in
  let t =
    memoise ctx ctx.samples key (fun () ->
        Braid_sample.Driver.measure ~warm_data:p.warm_data
          (sample_plan ctx p spec cfg) cfg)
  in
  { t with Braid_sample.Driver.result = renamed cfg t.Braid_sample.Driver.result }

let run ctx p cfg =
  match ctx.sample with
  | Some spec -> (sample ctx p ~spec cfg).Braid_sample.Driver.result
  | None ->
      renamed cfg
        (memoise ctx ctx.runs (run_key p cfg) (fun () ->
             Braid_uarch.Core.result
               (Braid_uarch.Core.run ~warm_data:p.warm_data cfg (trace p cfg))))

let run_braid = run

(* A stream's window, in uids. A larger ring switches less often between
   the tracer and the core. Over the 30 requests of perfbench's cold-run
   mix, timed in process (release build, best of 5 per request, paired
   with the stored path), windows of 512 to 4,096 uids read 4.4-5.2%
   under the stored path, 8,192 and 16,384 read 6.3-6.6% under it, and
   65,536 4.9%, its rings no longer in cache. 16,384 takes about 0.5 MB. *)
let stream_window = 16_384

let run_streamed p cfg =
  let trace =
    Emulator.stream ~max_steps:(50 * p.scale) ~init_mem:p.init_mem
      ~release:(Braid_uarch.Config.Core_kind.releases_early cfg.Braid_uarch.Config.kind)
      ~capacity:(Int.max stream_window (Braid_uarch.Core.min_window cfg))
      (snd (binary p cfg))
  in
  Braid_uarch.Core.result (Braid_uarch.Core.run ~warm_data:p.warm_data cfg trace)

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

let binary_of ~which p =
  match which with
  | `Conv -> p.conventional.Braid_core.Extalloc.program
  | `Braid -> p.braid.Braid_core.Transform.program

(* The plan (fast-forward + BBV + clustering) is core-independent: one
   per (preparation, binary, spec) serves every configuration. *)
let sample_plan ctx ~label ~which p (spec : Braid_sample.Spec.t) =
  let key =
    Printf.sprintf "plan/%s/%s/%s" p.key label (Braid_sample.Spec.digest spec)
  in
  memoise ctx ctx.plans key (fun () ->
      let code = Emulator.Compiled.compile (binary_of ~which p) in
      Braid_sample.Driver.plan ~init_mem:p.init_mem
        ~max_steps:(50 * p.scale) ~spec code)

let sample_on ctx ~label ~which p ~spec (cfg : Braid_uarch.Config.t) =
  let key =
    Printf.sprintf "sample/%s/%s/%s/%s" cfg.Braid_uarch.Config.name p.key label
      (Braid_sample.Spec.digest spec)
  in
  memoise ctx ctx.samples key (fun () ->
      let plan = sample_plan ctx ~label ~which p spec in
      Braid_sample.Driver.measure ~warm_data:p.warm_data plan cfg)

let sample_conv ctx p ~spec cfg = sample_on ctx ~label:"conv" ~which:`Conv p ~spec cfg
let sample_braid ctx p ~spec cfg = sample_on ctx ~label:"braid" ~which:`Braid p ~spec cfg

let run_on ctx ~label ~which p (cfg : Braid_uarch.Config.t) =
  match ctx.sample with
  | Some spec ->
      (sample_on ctx ~label ~which p ~spec cfg).Braid_sample.Driver.result
  | None ->
      let trace =
        (match which with `Conv -> p.conv_trace | `Braid -> p.braid_trace) ()
      in
      let key =
        Printf.sprintf "%s/%s/%s/%d" cfg.Braid_uarch.Config.name
          p.profile.Braid_workload.Spec.name label (Trace.length trace)
      in
      memoise ctx ctx.runs key (fun () ->
          Braid_uarch.Core.result (Braid_uarch.Core.run ~warm_data:p.warm_data cfg trace))

let run_conv ctx p cfg = run_on ctx ~label:"conv" ~which:`Conv p cfg
let run_braid ctx p cfg = run_on ctx ~label:"braid" ~which:`Braid p cfg

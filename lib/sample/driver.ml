(* The sampled cycle-level driver.

   A run splits into two core-independent and core-dependent halves:

   [plan] fast-forwards the whole program once through the compiled
   emulator, collecting one BBV per interval, clusters them and picks
   weighted representative intervals. The plan depends only on the
   program, data image and spec — never on the core — so one plan serves
   every configuration in an experiment or sweep.

   [measure] walks the program forward once more per core: fast-forward
   to each representative, replay a bounded functional warm-up into the
   caches and predictor (untimed), then simulate a short detailed
   warm-up plus the interval with the full pipeline model, reporting
   only the interval's suffix (commit-to-commit, [measure_from]).
   Weighted CPI over the representatives extrapolates to a full-run
   [Core.result] whose counters are per-instruction rates scaled to
   the whole run, so a sampled result drops into any consumer of full
   results. *)

module U = Braid_uarch

type plan = {
  spec : Spec.t;
  code : Emulator.Compiled.code;
  init_mem : (int * int64) list;
  profile : Bbv.profile;
  chosen : (Bbv.interval * float) array;
      (* ascending by start; weights sum to ~1 *)
}

type rep = {
  interval_index : int;
  start : int;
  length : int;
  weight : float;
  ipc : float;
}

type t = {
  spec : Spec.t;
  total_instrs : int;
  num_intervals : int;
  reps : rep list;
  ipc : float;  (* weighted-CPI harmonic aggregate *)
  result : U.Core.result;  (* extrapolated to the full run *)
}

let position_weight = 0.5
let warm_history = 65_536

let plan ?(init_mem = []) ?max_steps ~spec code =
  let profile = Bbv.profile ~init_mem ?max_steps ~spec code in
  let ivs = profile.Bbv.intervals in
  let n = Array.length ivs in
  if n = 0 then invalid_arg "Driver.plan: program executed no instructions";
  let total = float_of_int profile.Bbv.total in
  let chosen =
    if n <= spec.Spec.max_k then
      (* every interval is its own representative: sampling is exact *)
      Array.map (fun iv -> (iv, float_of_int iv.Bbv.length /. total)) ivs
    else begin
      (* Cluster on the BBV plus a lightly-weighted position coordinate.
         Homogeneous code (one big loop) yields near-identical BBVs for
         every interval, yet per-interval cost still drifts as caches and
         predictors warm over the run; position breaks those ties so the
         representatives stratify the run in time, while genuinely
         distinct phases (BBV distance ≫ position term) still cluster by
         code signature. *)
      let fn = float_of_int (max 1 (n - 1)) in
      let points =
        Array.mapi
          (fun i iv ->
            Array.append iv.Bbv.vector
              [| position_weight *. (float_of_int i /. fn) |])
          ivs
      in
      let cl = Kmeans.cluster ~seed:spec.Spec.seed ~k:spec.Spec.max_k points in
      let reps = Kmeans.representatives cl points in
      (* a cluster weighs what its members execute, not how many there are *)
      let mass = Array.make cl.Kmeans.k 0 in
      Array.iteri
        (fun i iv ->
          let c = cl.Kmeans.assign.(i) in
          mass.(c) <- mass.(c) + iv.Bbv.length)
        ivs;
      let arr =
        Array.of_list
          (List.map
             (fun i ->
               (ivs.(i), float_of_int mass.(cl.Kmeans.assign.(i)) /. total))
             reps)
      in
      Array.sort
        (fun ((a : Bbv.interval), _) (b, _) -> compare a.Bbv.start b.Bbv.start)
        arr;
      arr
    end
  in
  { spec; code; init_mem; profile; chosen }

let measure ?(warm_data = []) (p : plan) (cfg : U.Config.t) =
  let run = Emulator.Compiled.start ~init_mem:p.init_mem p.code in
  let wsum = Array.fold_left (fun a (_, w) -> a +. w) 0.0 p.chosen in
  (* weighted per-instruction rates, accumulated over representatives *)
  let cpi = ref 0.0 in
  let occ_cycles = ref 0.0 in
  let r_lookups = ref 0.0
  and r_mispredicts = ref 0.0
  and r_l1i = ref 0.0
  and r_l1d = ref 0.0
  and r_l2 = ref 0.0
  and r_stall_regs = ref 0.0
  and r_faults = ref 0.0 in
  let r_ext_reads = ref 0.0
  and r_ext_writes = ref 0.0
  and r_int_reads = ref 0.0
  and r_int_writes = ref 0.0
  and r_bypass = ref 0.0 in
  let r_s_redirect = ref 0.0
  and r_s_icache = ref 0.0
  and r_s_core = ref 0.0
  and r_s_frontend = ref 0.0 in
  (* snapshot at the current window's functional-warm start, so the next
     window's warm-up may rewind into the region this window already
     executed *)
  let snap = ref None in
  let seek_to wstart =
    let pos = Emulator.Compiled.steps run in
    if wstart < pos then begin
      match !snap with
      | Some (sp, spos) when spos <= wstart -> Emulator.Compiled.restore run sp
      | _ -> assert false (* starts ascend, so the last snapshot is older *)
    end;
    let pos = Emulator.Compiled.steps run in
    if wstart > pos then ignore (Emulator.Compiled.advance run ~fuel:(wstart - pos));
    snap := Some (Emulator.Compiled.snapshot run, wstart)
  in
  let reps =
    Array.to_list
      (Array.map
         (fun ((iv : Bbv.interval), w) ->
           let w = w /. wsum in
           let wstart = max 0 (iv.Bbv.start - p.spec.Spec.warmup) in
           (* Functional warm-up: replay the [warm_history] instructions
              preceding the detailed window into the caches and predictor
              (untimed), so the window starts from the deep
              microarchitectural history its position implies — L2
              content and predictor tables remember far more than any
              affordable detailed warm-up covers. Bounded, so per-window
              cost stays constant however long the full run is. *)
           let pstart = max 0 (wstart - warm_history) in
           seek_to pstart;
           let prewarm =
             if wstart = pstart then None
             else
               Some (Emulator.Compiled.trace_window run ~max_steps:(wstart - pstart))
           in
           let wlen = iv.Bbv.start - wstart in
           (* Detailed warm-up: simulate warm-up + interval as one window
              and let the pipeline report only the interval's suffix
              ([measure_from]). The interval is then timed in a machine
              whose pipeline, caches, predictor and register lifetimes
              all carry the warm-up's real state. The first interval has
              no warm-up and keeps its cold-start transient: the full run
              starts cold there too. *)
           let window =
             Emulator.Compiled.trace_window run ~max_steps:(wlen + iv.Bbv.length)
           in
           let r =
             U.Core.result (U.Core.run ~warm_data ?prewarm
               ?measure_from:(if wlen = 0 then None else Some wlen)
               cfg window)
           in
           let instrs = float_of_int r.U.Core.instructions in
           let cycles = float_of_int (max 1 r.U.Core.cycles) in
           let this_cpi = cycles /. instrs in
           let occ = r.U.Core.avg_occupancy in
           let rate get = w *. (float_of_int (get r) /. instrs) in
           cpi := !cpi +. (w *. this_cpi);
           occ_cycles := !occ_cycles +. (w *. this_cpi *. occ);
           r_lookups := !r_lookups +. rate (fun r -> r.U.Core.branch_lookups);
           r_mispredicts :=
             !r_mispredicts +. rate (fun r -> r.U.Core.branch_mispredicts);
           r_l1i := !r_l1i +. rate (fun r -> r.U.Core.l1i_misses);
           r_l1d := !r_l1d +. rate (fun r -> r.U.Core.l1d_misses);
           r_l2 := !r_l2 +. rate (fun r -> r.U.Core.l2_misses);
           r_stall_regs :=
             !r_stall_regs +. rate (fun r -> r.U.Core.dispatch_stall_regs);
           r_faults := !r_faults +. rate (fun r -> r.U.Core.faults);
           r_ext_reads :=
             !r_ext_reads
             +. rate (fun r -> r.U.Core.activity.U.Machine.ext_rf_reads);
           r_ext_writes :=
             !r_ext_writes
             +. rate (fun r -> r.U.Core.activity.U.Machine.ext_rf_writes);
           r_int_reads :=
             !r_int_reads
             +. rate (fun r -> r.U.Core.activity.U.Machine.int_rf_reads);
           r_int_writes :=
             !r_int_writes
             +. rate (fun r -> r.U.Core.activity.U.Machine.int_rf_writes);
           r_bypass :=
             !r_bypass
             +. rate (fun r -> r.U.Core.activity.U.Machine.bypass_values);
           r_s_redirect :=
             !r_s_redirect
             +. rate (fun r -> r.U.Core.stalls.U.Core.fetch_redirect);
           r_s_icache :=
             !r_s_icache
             +. rate (fun r -> r.U.Core.stalls.U.Core.fetch_icache);
           r_s_core :=
             !r_s_core
             +. rate (fun r -> r.U.Core.stalls.U.Core.dispatch_core);
           r_s_frontend :=
             !r_s_frontend
             +. rate (fun r -> r.U.Core.stalls.U.Core.dispatch_frontend);
           {
             interval_index = iv.Bbv.index;
             start = iv.Bbv.start;
             length = iv.Bbv.length;
             weight = w;
             ipc = instrs /. cycles;
           })
         p.chosen)
  in
  let total = p.profile.Bbv.total in
  let ftotal = float_of_int total in
  let cycles = max 1 (int_of_float (Float.round (ftotal *. !cpi))) in
  let scale r = int_of_float (Float.round (ftotal *. !r)) in
  let result =
    {
      U.Core.config_name = cfg.U.Config.name;
      instructions = total;
      cycles;
      ipc = ftotal /. float_of_int cycles;
      branch_lookups = scale r_lookups;
      branch_mispredicts = scale r_mispredicts;
      l1i_misses = scale r_l1i;
      l1d_misses = scale r_l1d;
      l2_misses = scale r_l2;
      dispatch_stall_regs = scale r_stall_regs;
      faults = scale r_faults;
      activity =
        {
          U.Machine.ext_rf_reads = scale r_ext_reads;
          ext_rf_writes = scale r_ext_writes;
          int_rf_reads = scale r_int_reads;
          int_rf_writes = scale r_int_writes;
          bypass_values = scale r_bypass;
        };
      stalls =
        {
          U.Core.fetch_redirect = scale r_s_redirect;
          fetch_icache = scale r_s_icache;
          dispatch_core = scale r_s_core;
          dispatch_frontend = scale r_s_frontend;
        };
      avg_occupancy = (if !cpi > 0.0 then !occ_cycles /. !cpi else 0.0);
    }
  in
  {
    spec = p.spec;
    total_instrs = total;
    num_intervals = Array.length p.profile.Bbv.intervals;
    reps;
    ipc = result.U.Core.ipc;
    result;
  }

let error_vs ~full (t : t) =
  let f = full.U.Core.ipc in
  if f = 0.0 then 0.0 else Float.abs (t.ipc -. f) /. f

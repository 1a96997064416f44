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
  (* where each representative's detailed warm-up and, [warm_history]
     instructions before it, its functional warm-up start *)
  let detail_start (iv : Bbv.interval) =
    max 0 (iv.Bbv.start - p.spec.Spec.warmup)
  in
  let warm_start iv = max 0 (detail_start iv - warm_history) in
  let nreps = Array.length p.chosen in
  (* A snapshot at a functional-warm start lets the next representative
     rewind into the region this one executes. Starts ascend, so only a
     next warm-up that begins before this window ends needs one; every
     other representative fast-forwards from where the last one
     stopped. *)
  let snap = ref None in
  let seek_to i =
    let iv = fst p.chosen.(i) in
    let target = warm_start iv in
    let pos = Emulator.Compiled.steps run in
    if target < pos then begin
      match !snap with
      | Some (sp, spos) when spos <= target -> Emulator.Compiled.restore run sp
      | _ ->
          invalid_arg
            (Printf.sprintf
               "Driver.measure: warm-up at %d starts before the run's position %d"
               target pos)
    end;
    let pos = Emulator.Compiled.steps run in
    if target > pos then
      ignore (Emulator.Compiled.advance run ~fuel:(target - pos));
    let rewinds =
      i + 1 < nreps
      && warm_start (fst p.chosen.(i + 1)) < iv.Bbv.start + iv.Bbv.length
    in
    snap := if rewinds then Some (Emulator.Compiled.snapshot run, target) else None
  in
  (* one buffer for every representative's functional warm-up *)
  let warm = Trace.Warm.create ~capacity:warm_history in
  (* each representative with its normalised weight and the windowed
     result of its interval, in start order *)
  let measured =
    Array.mapi
      (fun i ((iv : Bbv.interval), w) ->
        (* Functional warm-up: replay the [warm_history] instructions
           preceding the detailed window into the caches and predictor
           (untimed), so the window starts from the deep
           microarchitectural history its position implies — L2
           content and predictor tables remember far more than any
           affordable detailed warm-up covers. Bounded, so per-window
           cost stays constant however long the full run is. The walk
           keeps only what the replay reads; no trace is built. *)
        seek_to i;
        let wstart = detail_start iv in
        Emulator.Compiled.warm_window run warm
          ~max_steps:(wstart - warm_start iv);
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
          U.Core.result (U.Core.run ~warm_data ~warm
            ?measure_from:(if wlen = 0 then None else Some wlen)
            cfg window)
        in
        (iv, w /. wsum, r))
      p.chosen
  in
  (* weighted per-instruction rates, accumulated over representatives:
     CPI, CPI × occupancy, and one rate per [Core.counts] entry. [plan]
     keeps at least one representative, whose result shapes the vector
     and the extrapolated result. *)
  let _, _, first = measured.(0) in
  let cpi = ref 0.0 and occ_cycles = ref 0.0 in
  let rates = Array.map (fun _ -> 0.0) (U.Core.counts first) in
  let reps =
    Array.to_list
      (Array.map
         (fun ((iv : Bbv.interval), w, r) ->
           let instrs = float_of_int r.U.Core.instructions in
           let cycles = float_of_int (max 1 r.U.Core.cycles) in
           let this_cpi = cycles /. instrs in
           cpi := !cpi +. (w *. this_cpi);
           occ_cycles := !occ_cycles +. (w *. this_cpi *. r.U.Core.avg_occupancy);
           Array.iteri
             (fun i c ->
               rates.(i) <- rates.(i) +. (w *. (float_of_int c /. instrs)))
             (U.Core.counts r);
           {
             interval_index = iv.Bbv.index;
             start = iv.Bbv.start;
             length = iv.Bbv.length;
             weight = w;
             ipc = instrs /. cycles;
           })
         measured)
  in
  let total = p.profile.Bbv.total in
  let ftotal = float_of_int total in
  let cycles = max 1 (int_of_float (Float.round (ftotal *. !cpi))) in
  let scale rate = int_of_float (Float.round (ftotal *. rate)) in
  let result =
    U.Core.with_counts
      {
        first with
        U.Core.config_name = cfg.U.Config.name;
        instructions = total;
        cycles;
        ipc = ftotal /. float_of_int cycles;
        avg_occupancy = (if !cpi > 0.0 then !occ_cycles /. !cpi else 0.0);
      }
      (Array.map scale rates)
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

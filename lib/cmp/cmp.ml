module U = Braid_uarch

(* Multi-programmed (rate-mode) CMP: N identical cores, each running its
   own program over private L1s, share one coherent L2 behind an MSI
   directory ([Mem_hier]). One global clock steps every unfinished core
   once per cycle (core 0 first — deterministic); a finished core goes
   quiet while the others keep contending for the shared L2. *)

type workload = {
  w_bench : string;
  w_trace : Trace.t;
  w_warm_data : int list;
}

type core_result = {
  core_id : int;
  bench : string;
  result : U.Core.result;  (* counters at this core's own finish cycle *)
  counters : (string * U.Core.counter) list;
  solo_cycles : int;
  slowdown : float;  (* cycles / solo_cycles; 1.0 = no interference *)
}

type t = {
  cores : core_result list;
  cycles : int;  (* global cycles until the last core finished *)
  instructions : int;  (* summed over cores *)
  aggregate_ipc : float;  (* sum of per-core IPCs (rate metric) *)
  weighted_speedup : float;  (* (1/N) sum of IPC_cmp / IPC_solo *)
  l2_hits : int;
  l2_misses : int;
  coherence : U.Mem_hier.coh_stats;
  violations : string list;  (* directory-legality scan at the end *)
}

let run ?probes ~solo_cycles ~(cfg : U.Config.t) ~(cmp : U.Config.Cmp.t)
    (workloads : workload array) =
  let n = Array.length workloads in
  if n = 0 then invalid_arg "Cmp.run: no workloads";
  if n <> cmp.U.Config.Cmp.cores then
    invalid_arg
      (Printf.sprintf "Cmp.run: %d workloads for %d cores" n
         cmp.U.Config.Cmp.cores);
  (match probes with
  | Some p when Array.length p <> n ->
      invalid_arg "Cmp.run: probes length must equal the core count"
  | _ -> ());
  if Array.length solo_cycles <> n then
    invalid_arg "Cmp.run: solo_cycles length must equal the core count";
  let shared =
    U.Mem_hier.create_shared
      ~memory_latency:cfg.U.Config.mem.U.Config.memory_latency
      cmp.U.Config.Cmp.l2
  in
  (* Creation order is core order: warm-up fills interleave into the
     shared L2 deterministically. *)
  let cores =
    Array.mapi
      (fun i w ->
        let hier = U.Mem_hier.attach ~core:i shared cfg.U.Config.mem in
        let probe = Option.map (fun p -> p.(i)) probes in
        U.Core.create ?probe ~warm_data:w.w_warm_data ~hier cfg w.w_trace)
      workloads
  in
  let live = ref n in
  while !live > 0 do
    Array.iter
      (fun c ->
        if not (U.Core.finished c) then begin
          U.Core.step c;
          if U.Core.finished c then decr live
        end)
      cores
  done;
  let per_core =
    Array.to_list
      (Array.mapi
         (fun i c ->
           let r = U.Core.result c in
           {
             core_id = i;
             bench = workloads.(i).w_bench;
             result = r;
             counters = U.Core.counters c;
             solo_cycles = solo_cycles.(i);
             slowdown =
               float_of_int r.U.Core.cycles
               /. float_of_int (max 1 solo_cycles.(i));
           })
         cores)
  in
  let cycles =
    List.fold_left (fun acc c -> max acc c.result.U.Core.cycles) 0 per_core
  in
  let instructions =
    List.fold_left (fun acc c -> acc + c.result.U.Core.instructions) 0 per_core
  in
  let aggregate_ipc =
    List.fold_left (fun acc c -> acc +. c.result.U.Core.ipc) 0.0 per_core
  in
  let weighted_speedup =
    List.fold_left (fun acc c -> acc +. (1.0 /. c.slowdown)) 0.0 per_core
    /. float_of_int n
  in
  let l2_hits, l2_misses = U.Mem_hier.shared_l2_stats shared in
  {
    cores = per_core;
    cycles;
    instructions;
    aggregate_ipc;
    weighted_speedup;
    l2_hits;
    l2_misses;
    coherence = U.Mem_hier.coh_of_shared shared;
    violations = U.Mem_hier.coherence_violations shared;
  }

let counters r =
  let count name n = (name, U.Core.Count n) in
  let coh = r.coherence in
  [
    count "coh.remote_hits" coh.U.Mem_hier.remote_hits;
    count "coh.writebacks" coh.U.Mem_hier.writebacks;
    count "coh.downgrades" coh.U.Mem_hier.downgrades;
    count "coh.invalidations" coh.U.Mem_hier.invalidations;
    count "l2.misses" r.l2_misses;
    count "l2.hits" r.l2_hits;
  ]
  @ List.concat_map
      (fun c ->
        List.map
          (fun (name, v) -> (Printf.sprintf "core%d.%s" c.core_id name, v))
          c.counters)
      r.cores

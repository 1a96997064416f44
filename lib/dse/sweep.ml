module Config = Braid_uarch.Config
module Spec = Braid_workload.Spec
module Suite = Braid_sim.Suite
module Runner = Braid_sim.Runner
module Obs = Braid_obs

type run = {
  bench : string;
  cycles : int;
  instructions : int;
  ipc : float;
  from_cache : bool;
  cmp : Cache.cmp_extra option;
}

type point_result = {
  point : Grid.point;
  digest : string;
  complexity : float;
  mean_ipc : float;
  runs : run list;
}

type stats = { simulated : int; cache_hits : int }

type outcome = { results : point_result list; stats : stats }

(* The braid compiler cannot target registers the machine does not have:
   sweeping ext_regs on a braid core recompiles with the matching external
   budget, exactly as the paper's Fig 6 study does. Conventional binaries
   are always allocated against the full architectural budget. *)
let ext_usable_of (cfg : Config.t) =
  if Config.Core_kind.braid_binary cfg.Config.kind then
    min cfg.Config.ext_regs Braid_core.Extalloc.usable_per_class
  else Braid_core.Extalloc.usable_per_class

(* the on-disk key's binary label: existing cache directories stay valid *)
let binary_of (cfg : Config.t) =
  if Config.Core_kind.braid_binary cfg.Config.kind then "braid" else "conv"

let key_of ~ctx ~seed ~scale ~cores (cfg : Config.t) (pr : Spec.profile) =
  {
    Cache.config_digest = Config.digest cfg;
    bench = pr.Spec.name;
    seed;
    scale;
    binary = binary_of cfg;
    ext_usable = ext_usable_of cfg;
    (* a sampled sweep answers a different question than a full one:
       keep their cache entries apart *)
    sampling =
      (match Suite.sampling ctx with
      | None -> ""
      | Some sp -> Braid_sample.Spec.digest sp);
    cores;
  }

let simulate ~ctx ~seed ~scale (cfg : Config.t) (pr : Spec.profile) =
  let p = Suite.prepare ctx ~seed ~scale ~ext_usable:(ext_usable_of cfg) pr in
  let r = Suite.run ctx p cfg in
  {
    Cache.cycles = r.Braid_uarch.Core.cycles;
    instructions = r.Braid_uarch.Core.instructions;
    cmp = None;
  }

(* A cores > 1 point is a rate-mode CMP run: [cores] copies of the
   benchmark over a shared coherent L2 (capacity scaled with the core
   count, Config.Cmp.default_l2). Always full simulation — sampling does
   not compose with a shared hierarchy. *)
let simulate_cmp ~ctx ~seed ~scale ~cores (cfg : Config.t) (pr : Spec.profile) =
  if Suite.sampling ctx <> None then
    invalid_arg "Sweep: sampled simulation does not support the cores axis";
  let cmp =
    Braid_uarch.Config.Cmp.make ~cores ~workloads:[ pr.Spec.name ] ()
  in
  let r =
    Braid_cmp.Cmp_bench.run ~ext_usable:(ext_usable_of cfg) ctx ~seed ~scale
      ~cfg cmp
  in
  let open Braid_cmp in
  let coh = r.Cmp.coherence in
  {
    Cache.cycles = r.Cmp.cycles;
    instructions = r.Cmp.instructions;
    cmp =
      Some
        {
          Cache.per_core =
            List.map
              (fun (c : Cmp.core_result) ->
                ( c.Cmp.result.Braid_uarch.Core.cycles,
                  c.Cmp.result.Braid_uarch.Core.instructions ))
              r.Cmp.cores;
          solo = List.map (fun (c : Cmp.core_result) -> c.Cmp.solo_cycles) r.Cmp.cores;
          invalidations = coh.Braid_uarch.Mem_hier.invalidations;
          downgrades = coh.Braid_uarch.Mem_hier.downgrades;
          writebacks = coh.Braid_uarch.Mem_hier.writebacks;
          remote_hits = coh.Braid_uarch.Mem_hier.remote_hits;
          l2_hits = r.Cmp.l2_hits;
          l2_misses = r.Cmp.l2_misses;
        };
  }

let job_count ~benches points = List.length points * List.length benches

let run ?counters ?cache ?on_done ~ctx ~jobs ~seed ~scale
    ~benches points =
  let work =
    Array.of_list
      (List.concat_map
         (fun (pt : Grid.point) ->
           List.map
             (fun (pr : Spec.profile) ->
               let label =
                 Printf.sprintf "%s/%s" pt.Grid.config.Config.name pr.Spec.name
               in
               ( label,
                 fun () ->
                   let cores = pt.Grid.cores in
                   let key = key_of ~ctx ~seed ~scale ~cores pt.Grid.config pr in
                   match Option.bind cache (fun c -> Cache.find c key) with
                   | Some e -> (e, true)
                   | None ->
                       let e =
                         if cores = 1 then
                           simulate ~ctx ~seed ~scale pt.Grid.config pr
                         else
                           simulate_cmp ~ctx ~seed ~scale ~cores pt.Grid.config
                             pr
                       in
                       Option.iter (fun c -> Cache.store c key e) cache;
                       (e, false) ))
             benches)
         points)
  in
  let out = Runner.map_jobs ?on_done ~jobs work in
  let nbench = List.length benches in
  let results =
    List.mapi
      (fun pi (pt : Grid.point) ->
        let runs =
          List.mapi
            (fun bi (pr : Spec.profile) ->
              let (e : Cache.entry), from_cache = out.((pi * nbench) + bi) in
              {
                bench = pr.Spec.name;
                cycles = e.Cache.cycles;
                instructions = e.Cache.instructions;
                (* recomputed from the integers so a cached and a fresh
                   result are bit-identical. Solo: same formula as
                   Core. CMP: the rate metric — each core's IPC at
                   its own finish cycle, summed. *)
                ipc =
                  (match e.Cache.cmp with
                  | None ->
                      float_of_int e.Cache.instructions
                      /. float_of_int (max 1 e.Cache.cycles)
                  | Some x ->
                      List.fold_left
                        (fun acc (c, i) ->
                          acc +. (float_of_int i /. float_of_int (max 1 c)))
                        0.0 x.Cache.per_core);
                from_cache;
                cmp = e.Cache.cmp;
              })
            benches
        in
        let mean_ipc =
          List.fold_left (fun acc r -> acc +. r.ipc) 0.0 runs
          /. float_of_int (max 1 (List.length runs))
        in
        {
          point = pt;
          digest = Config.digest pt.Grid.config;
          (* a CMP point spends its per-core complexity once per core, so
             the Pareto trade-off is throughput vs total silicon *)
          complexity =
            (Braid_uarch.Complexity.of_config pt.Grid.config)
              .Braid_uarch.Complexity.total
            *. float_of_int pt.Grid.cores;
          mean_ipc;
          runs;
        })
      points
  in
  let count p =
    List.fold_left
      (fun acc pr ->
        acc + List.length (List.filter (fun r -> p r) pr.runs))
      0 results
  in
  let stats =
    { simulated = count (fun r -> not r.from_cache); cache_hits = count (fun r -> r.from_cache) }
  in
  (* fold the totals into the registry after the parallel section:
     registries are single-owner, so domains must not touch them *)
  Option.iter
    (fun reg ->
      Obs.Counters.add reg "dse.simulations" stats.simulated;
      Obs.Counters.add reg "dse.cache_hits" stats.cache_hits)
    counters;
  { results; stats }

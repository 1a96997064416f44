module U = Braid_uarch
module Suite = Braid_sim.Suite
module Spec = Braid_workload.Spec

(* The default compile budget is Suite.prepare's own default — the same
   binaries `braidsim run` times, so a 1-core CMP lands on the golden
   numbers exactly. A sweep overrides it with its per-point budget
   (Sweep.ext_usable_of) so the cores axis compares like binaries with
   its solo points. *)
let resolve ?(ext_usable = Braid_core.Extalloc.usable_per_class) ctx ~seed
    ~scale ~(cfg : U.Config.t) (cmp : U.Config.Cmp.t) =
  Array.init cmp.U.Config.Cmp.cores (fun i ->
      let name = U.Config.Cmp.workload_of cmp i in
      let pr =
        match Spec.find name with
        | p -> p
        | exception Not_found ->
            invalid_arg (Printf.sprintf "Cmp_bench: unknown benchmark %S" name)
      in
      let p = Suite.prepare ctx ~seed ~scale ~ext_usable pr in
      {
        Cmp.w_bench = pr.Spec.name;
        w_trace = Suite.trace p cfg;
        w_warm_data = p.Suite.warm_data;
      })

let run ?probes ?ext_usable ctx ~seed ~scale ~(cfg : U.Config.t)
    (cmp : U.Config.Cmp.t) =
  let workloads = resolve ?ext_usable ctx ~seed ~scale ~cfg cmp in
  Cmp.run ?probes ~cfg ~cmp workloads

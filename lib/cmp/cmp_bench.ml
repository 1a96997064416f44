module U = Braid_uarch
module Suite = Braid_sim.Suite
module Spec = Braid_workload.Spec

(* The default compile budget is Suite.prepare's own default — the same
   binaries `braidsim run` times, so a 1-core CMP lands on the golden
   numbers exactly. A sweep overrides it with its per-point budget
   (Sweep.ext_usable_of) so the cores axis compares like binaries with
   its solo points. *)
let preparations ?(ext_usable = Braid_core.Extalloc.usable_per_class) ctx ~seed
    ~scale (cmp : U.Config.Cmp.t) =
  Array.init cmp.U.Config.Cmp.cores (fun i ->
      let name = U.Config.Cmp.workload_of cmp i in
      let pr =
        match Spec.find name with
        | p -> p
        | exception Not_found ->
            invalid_arg (Printf.sprintf "Cmp_bench: unknown benchmark %S" name)
      in
      Suite.prepare ctx ~seed ~scale ~ext_usable pr)

let workload_of cfg (p : Suite.prepared) =
  {
    Cmp.w_bench = p.Suite.profile.Spec.name;
    w_trace = Suite.trace p cfg;
    w_warm_data = p.Suite.warm_data;
  }

(* Each core's solo baseline is the memoised suite run of its
   preparation: a sweep's solo point or a repeated request pays once. *)
let run ?ext_usable ctx ~seed ~scale ~(cfg : U.Config.t)
    (cmp : U.Config.Cmp.t) =
  let ps = preparations ?ext_usable ctx ~seed ~scale cmp in
  let solo_cycles =
    Array.map (fun p -> (Suite.run ctx p cfg).U.Core.cycles) ps
  in
  Cmp.run ~solo_cycles ~cfg ~cmp (Array.map (workload_of cfg) ps)

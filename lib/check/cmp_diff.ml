module Transform = Braid_core.Transform
module Extalloc = Braid_core.Extalloc
module Config = Braid_uarch.Config
module Core = Braid_uarch.Core
module Probe = Braid_uarch.Probe
module Cmp = Braid_cmp.Cmp

type divergence = { core : int; kind : string; detail : string }

type report = {
  divergences : divergence list;
  cores : int;
  dynamic_count : int;  (* summed over the mix *)
}

let ok r = r.divergences = []

let max_steps = 200_000

(* A CMP fuzz case is [cores] independent solo fuzz cases sharing one L2:
   core [i] runs case [index * cores + i] of the stream, so consecutive
   indices never reuse a program and every solo case stays individually
   reproducible with the plain fuzzer. *)
let check ?(cores = 2) ?(kind = Config.Braid_exec) ~seed ~index () =
  let divs = ref [] in
  let add core k detail = divs := { core; kind = k; detail } :: !divs in
  let cfg = Config.preset_of_kind kind in
  let dynamic = ref 0 in
  let prepared =
    Array.init cores (fun i ->
        let case = Gen.generate ~seed ~index:((index * cores) + i) in
        let program, init_mem = Gen.build case in
        let binary =
          match kind with
          | Config.Braid_exec | Config.Cgooo ->
              (Transform.run program).Transform.program
          | _ -> (Transform.conventional program).Extalloc.program
        in
        let out = Emulator.run ~max_steps ~trace:true ~init_mem binary in
        if out.Emulator.stop <> Trace.Halted then
          add i "non-terminating"
            (Printf.sprintf "%s: binary did not halt within %d steps"
               (Gen.describe case) max_steps);
        dynamic := !dynamic + out.Emulator.dynamic_count;
        let trace =
          match out.Emulator.trace with Some t -> t | None -> assert false
        in
        let warm_data = List.map fst init_mem in
        (case, trace, warm_data))
  in
  if !divs <> [] then
    { divergences = List.rev !divs; cores; dynamic_count = !dynamic }
  else begin
    (* Solo runs first: the reference commit streams and the slowdown
       denominators, each over a private hierarchy. *)
    let solo =
      Array.map
        (fun (_, trace, warm_data) ->
          let probe = Probe.create ~invariants:true cfg in
          let cycles =
            (Core.result (Core.run ~probe ~warm_data cfg trace)).Core.cycles
          in
          (cycles, Probe.committed probe, Probe.committed_pcs probe))
        prepared
    in
    let workloads =
      Array.mapi
        (fun i (_case, trace, warm_data) ->
          {
            Cmp.w_bench = Printf.sprintf "fuzz-%d" ((index * cores) + i);
            w_trace = trace;
            w_warm_data = warm_data;
          })
        prepared
    in
    let probes = Array.init cores (fun _ -> Probe.create ~invariants:true cfg) in
    let cmp =
      Config.Cmp.make ~cores
        ~workloads:(Array.to_list (Array.map (fun w -> w.Cmp.w_bench) workloads))
        ()
    in
    let solo_cycles = Array.map (fun (c, _, _) -> c) solo in
    (match Cmp.run ~probes ~solo_cycles ~cfg ~cmp workloads with
    | result ->
        (* coherence-state legality: the directory scan must come back
           clean (e.g. no line with two M copies) *)
        List.iter (fun v -> add (-1) "coherence" v) result.Cmp.violations;
        Array.iteri
          (fun i probe ->
            if Probe.violation_count probe > 0 then
              add i "invariant"
                (Printf.sprintf "%d invariant violation(s) under contention"
                   (Probe.violation_count probe));
            let _, solo_uids, solo_pcs = solo.(i) in
            let cmp_uids = Probe.committed probe in
            let cmp_pcs = Probe.committed_pcs probe in
            if Array.length cmp_uids <> Array.length solo_uids then
              add i "commit-count"
                (Printf.sprintf "CMP committed %d instructions, solo %d"
                   (Array.length cmp_uids) (Array.length solo_uids))
            else begin
              let bad = ref (-1) in
              Array.iteri
                (fun j u ->
                  if !bad < 0 && (u <> solo_uids.(j) || cmp_pcs.(j) <> solo_pcs.(j))
                  then bad := j)
                cmp_uids;
              if !bad >= 0 then
                add i "commit-stream"
                  (Printf.sprintf
                     "position %d: CMP committed uid %d pc %#x, solo uid %d \
                      pc %#x"
                     !bad
                     cmp_uids.(!bad)
                     cmp_pcs.(!bad)
                     solo_uids.(!bad)
                     solo_pcs.(!bad))
            end)
          probes
    | exception Core.Deadlock msg -> add (-1) "deadlock" msg);
    { divergences = List.rev !divs; cores; dynamic_count = !dynamic }
  end

let render r =
  let buf = Buffer.create 128 in
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  %s/%s: %s\n"
           (if d.core < 0 then "shared" else Printf.sprintf "core%d" d.core)
           d.kind d.detail))
    r.divergences;
  Buffer.contents buf

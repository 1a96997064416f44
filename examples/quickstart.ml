(* Quickstart: generate a workload, run the braid compiler pass, and race
   the braid microarchitecture against a conventional out-of-order core.

     dune exec examples/quickstart.exe
*)

open Braid_isa
module C = Braid_core
module U = Braid_uarch
module W = Braid_workload

let () =
  (* 1. A workload: the gcc stand-in, ~10k dynamic instructions. *)
  let profile = W.Spec.find "gcc" in
  let program, init_mem = W.Spec.generate profile ~seed:1 ~scale:10_000 in
  Printf.printf "workload: %s — %s\n" profile.W.Spec.name profile.W.Spec.description;
  Printf.printf "  %d blocks, %d static instructions\n\n"
    (Program.num_blocks program)
    (Program.num_static_instrs program);

  (* 2. Compile twice: conventional allocation, and the braid pass. *)
  let conventional = C.Transform.conventional program in
  let braid = C.Transform.run program in
  Printf.printf "braid pass: %d braids, %d working-set splits, %d ordering splits\n"
    braid.C.Transform.braids braid.C.Transform.splits_working_set
    braid.C.Transform.splits_ordering;
  let stats =
    C.Braid_stats.summarize (C.Braid_stats.of_program braid.C.Transform.program)
  in
  Printf.printf
    "  %.1f braids/block, avg size %.1f, width %.2f, %.1f internal values per braid\n\n"
    stats.C.Braid_stats.braids_per_block stats.C.Braid_stats.avg_size_multi
    stats.C.Braid_stats.avg_width_multi stats.C.Braid_stats.avg_internals_multi;

  (* 3. Execute both binaries and check they compute the same thing. *)
  let run prog = Emulator.run ~max_steps:400_000 ~init_mem prog in
  let conv_out = run conventional.C.Extalloc.program in
  let braid_out = run braid.C.Transform.program in
  assert (
    Int64.equal
      (Emulator.memory_fingerprint conv_out.Emulator.state)
      (Emulator.memory_fingerprint braid_out.Emulator.state));
  Printf.printf "both binaries compute identical results (%d dynamic instructions)\n\n"
    conv_out.Emulator.dynamic_count;

  (* 4. Time them on their machines. *)
  let warm = List.map fst init_mem in
  let trace out = Option.get out.Emulator.trace in
  let time cfg out = U.Core.result (U.Core.run ~warm_data:warm cfg (trace out)) in
  let ooo = time U.Config.ooo_8wide conv_out in
  let br = time U.Config.braid_8wide braid_out in
  Printf.printf "8-wide out-of-order: %6d cycles  (IPC %.2f)\n" ooo.U.Core.cycles
    ooo.U.Core.ipc;
  Printf.printf "braid (8 BEUs):      %6d cycles  (IPC %.2f)\n" br.U.Core.cycles
    br.U.Core.ipc;
  Printf.printf "braid achieves %.1f%% of out-of-order performance\n"
    (100.0 *. float_of_int ooo.U.Core.cycles /. float_of_int br.U.Core.cycles)

(* Paradigm race: the Fig 13 experiment on one benchmark. All four
   execution paradigms at 4-, 8- and 16-wide, as ASCII bar charts.

     dune exec examples/paradigm_race.exe [benchmark]
*)

open Braid_isa
module C = Braid_core
module U = Braid_uarch
module W = Braid_workload

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "swim" in
  let profile = W.Spec.find name in
  let program, init_mem = W.Spec.generate profile ~seed:1 ~scale:12_000 in
  let conventional = (C.Transform.conventional program).C.Extalloc.program in
  let braided = (C.Transform.run program).C.Transform.program in
  let trace prog = Option.get (Emulator.run ~max_steps:600_000 ~init_mem prog).Emulator.trace in
  let conv_trace = trace conventional and braid_trace = trace braided in
  let warm = List.map fst init_mem in

  Printf.printf "%s — %s\n%!" name profile.W.Spec.description;
  let base =
    U.Core.result (U.Core.run ~warm_data:warm U.Config.ooo_8wide conv_trace)
  in
  Printf.printf "baseline: 8-wide out-of-order, %d cycles, IPC %.2f\n\n%!"
    base.U.Core.cycles base.U.Core.ipc;

  List.iter
    (fun width ->
      let at cfg = U.Config.scale_width cfg width in
      let run cfg tr = U.Core.result (U.Core.run ~warm_data:warm cfg tr) in
      let io = run (at U.Config.in_order_8wide) conv_trace in
      let dep = run (at U.Config.dep_steer_8wide) conv_trace in
      let braid = run (at U.Config.braid_8wide) braid_trace in
      let ooo = run (at U.Config.ooo_8wide) conv_trace in
      let norm r = U.Core.speedup base r in
      print_string
        (Render.bar_chart
           ~title:(Printf.sprintf "%d-wide (relative to 8-wide out-of-order)" width)
           [
             ("in-order", norm io);
             ("dep-steer", norm dep);
             ("braid", norm braid);
             ("out-of-order", norm ooo);
           ]);
      Printf.printf "  braid reaches %.1f%% of the %d-wide out-of-order design\n\n"
        (100.0 *. float_of_int ooo.U.Core.cycles /. float_of_int braid.U.Core.cycles)
        width)
    [ 4; 8; 16 ]

(* Exception handling in the braid microarchitecture (paper §3.4).

   A workload is laced with floating-point divides, one of which divides by
   zero. Architecturally the emulator records the fault; microarchitecturally
   the braid pipeline serialises — state rolls back to the last checkpoint,
   the machine drains into a single-BEU in-order mode, the handler runs, and
   execution resumes. The demo shows the fault surfacing in the trace and
   the cycle cost of the serialisation against a fault-free run.

     dune exec examples/exception_demo.exe
*)

open Braid_isa
module C = Braid_core
module U = Braid_uarch
module B = Braid_workload.Build

let build ~poison =
  let b = B.create () in
  let data, rd, _ =
    B.alloc_array b ~words:64
      ~init:(fun k ->
        (* element 40 is zero in the poisoned variant: 2.0 / data[40] faults *)
        if poison && k = 40 then 0L else Int64.bits_of_float (1.0 +. float_of_int k))
  in
  let out, ro, _ = B.alloc_array b ~words:64 ~init:(fun _ -> 0L) in
  let two = B.const b Reg.Cfp 2L in
  B.counted_loop b ~count:64 (fun b i ->
      let off = B.int_reg b in
      B.emit b (Op.Ibini (Op.Shl, off, i, 3));
      let addr = B.int_reg b in
      B.emit b (Op.Ibin (Op.Add, addr, data, off));
      let v = B.fp_reg b in
      B.emit b (Op.Load (v, addr, 0, rd));
      let q = B.fp_reg b in
      B.emit b (Op.Fbin (Op.Fdiv, q, two, v));
      let oaddr = B.int_reg b in
      B.emit b (Op.Ibin (Op.Add, oaddr, out, off));
      B.emit b (Op.Store (q, oaddr, 0, ro)));
  B.finish b

let run ~poison =
  let program, init_mem = build ~poison in
  let braided = (C.Transform.run program).C.Transform.program in
  let out = Emulator.run ~init_mem braided in
  let trace = Option.get out.Emulator.trace in
  let result =
    U.Core.result (U.Core.run ~warm_data:(List.map fst init_mem) U.Config.braid_8wide trace)
  in
  (out, result)

let () =
  let clean_arch, clean = run ~poison:false in
  let fault_arch, faulty = run ~poison:true in
  ignore clean_arch;

  Printf.printf "fault-free run : %4d cycles, %d faults\n" clean.U.Core.cycles
    clean.U.Core.faults;
  Printf.printf "poisoned run   : %4d cycles, %d fault(s)\n\n" faulty.U.Core.cycles
    faulty.U.Core.faults;

  (* Architectural view: the faulting divide wrote zero and execution
     continued — the handler's repair, per the paper's checkpoint model. *)
  let t = Option.get fault_arch.Emulator.trace in
  for u = 0 to Trace.length t - 1 do
    let e = Trace.event t u in
    if e.Trace.faulting then
      Printf.printf
        "fault at uid %d (pc %#x): %s — pipeline drains to the checkpoint,\n\
         all BEUs but one disable, the handler runs in-order, then normal\n\
         mode resumes (paper §3.4)\n\n"
        e.Trace.uid e.Trace.pc
        (Disasm.instr e.Trace.instr)
  done;

  Printf.printf "serialisation cost: %d extra cycles (%.1f%%)\n"
    (faulty.U.Core.cycles - clean.U.Core.cycles)
    (100.0
    *. float_of_int (faulty.U.Core.cycles - clean.U.Core.cycles)
    /. float_of_int clean.U.Core.cycles);
  Printf.printf
    "internal register state needs no checkpointing: braid-internal values\n\
     are dead at every braid boundary, so checkpoints carry external state only.\n"

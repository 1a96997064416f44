(* Bringing your own workload: build a kernel with the Build DSL (or write
   assembly), braid it, and see where the braids land.

   The kernel here is a small complex-number multiply-accumulate loop:
     acc += a[i] * b[i]   over complex values stored as (re, im) pairs —
   a dataflow shape with two clear braids per iteration (the real and
   imaginary products) plus the loop control braid.

     dune exec examples/custom_kernel.exe
*)

open Braid_isa
module C = Braid_core
module U = Braid_uarch
module B = Braid_workload.Build

let build () =
  let b = B.create () in
  let n = 64 in
  let bits v = Int64.bits_of_float v in
  let a, ra, _ = B.alloc_array b ~words:(2 * n) ~init:(fun k -> bits (0.5 +. (0.01 *. float_of_int k))) in
  let bb, rb, _ = B.alloc_array b ~words:(2 * n) ~init:(fun k -> bits (1.5 -. (0.01 *. float_of_int k))) in
  let out, ro, _ = B.alloc_array b ~words:2 ~init:(fun _ -> 0L) in
  let acc_re = B.const b Reg.Cfp 0L in
  let acc_im = B.const b Reg.Cfp 0L in
  B.counted_loop b ~count:n (fun b i ->
      let off = B.int_reg b in
      B.emit b (Op.Ibini (Op.Shl, off, i, 4));
      (* (re, im) pair: 16 bytes *)
      let aaddr = B.int_reg b in
      B.emit b (Op.Ibin (Op.Add, aaddr, a, off));
      let baddr = B.int_reg b in
      B.emit b (Op.Ibin (Op.Add, baddr, bb, off));
      let load base off region =
        let r = B.fp_reg b in
        B.emit b (Op.Load (r, base, off, region));
        r
      in
      let ar = load aaddr 0 ra and ai = load aaddr 8 ra in
      let br = load baddr 0 rb and bi = load baddr 8 rb in
      let mul x y =
        let r = B.fp_reg b in
        B.emit b (Op.Fbin (Op.Fmul, r, x, y));
        r
      in
      (* re += ar*br - ai*bi;  im += ar*bi + ai*br *)
      let rr = mul ar br and ii = mul ai bi in
      let re = B.fp_reg b in
      B.emit b (Op.Fbin (Op.Fsub, re, rr, ii));
      B.emit b (Op.Fbin (Op.Fadd, acc_re, acc_re, re));
      let ri = mul ar bi and ir = mul ai br in
      let im = B.fp_reg b in
      B.emit b (Op.Fbin (Op.Fadd, im, ri, ir));
      B.emit b (Op.Fbin (Op.Fadd, acc_im, acc_im, im)));
  B.emit b (Op.Store (acc_re, out, 0, ro));
  B.emit b (Op.Store (acc_im, out, 8, ro));
  B.finish b

let () =
  let program, init_mem = build () in
  Printf.printf "custom kernel: complex dot product, %d static instructions\n\n"
    (Program.num_static_instrs program);

  (* braid it *)
  let rep = C.Transform.run program in
  Printf.printf "braid view of the loop body:\n%s\n"
    (Disasm.block_with_braids rep.C.Transform.program 1);

  (* the binary survives a trip through the assembler *)
  let asm_text = Disasm.program_asm rep.C.Transform.program in
  let reparsed = Asm.parse asm_text in
  let fp prog =
    Emulator.memory_fingerprint
      (Emulator.run ~trace:false ~init_mem prog).Emulator.state
  in
  assert (Int64.equal (fp rep.C.Transform.program) (fp reparsed));
  Printf.printf "assembler round trip: ok (%d lines of asm)\n\n"
    (List.length (String.split_on_char '\n' asm_text));

  (* race the machines *)
  let conv = (C.Transform.conventional program).C.Extalloc.program in
  let trace prog = Option.get (Emulator.run ~init_mem prog).Emulator.trace in
  let warm = List.map fst init_mem in
  let ooo = U.Core.result (U.Core.run ~warm_data:warm U.Config.ooo_8wide (trace conv)) in
  let braid =
    U.Core.result
      (U.Core.run ~warm_data:warm U.Config.braid_8wide (trace rep.C.Transform.program))
  in
  Printf.printf "out-of-order: %4d cycles (IPC %.2f)\n" ooo.U.Core.cycles ooo.U.Core.ipc;
  Printf.printf "braid:        %4d cycles (IPC %.2f) — %.0f%% of OoO at 1/%.0f the complexity\n"
    braid.U.Core.cycles braid.U.Core.ipc
    (100.0 *. float_of_int ooo.U.Core.cycles /. float_of_int braid.U.Core.cycles)
    (U.Complexity.relative
       (U.Complexity.of_config U.Config.ooo_8wide)
       (U.Complexity.of_config U.Config.braid_8wide))

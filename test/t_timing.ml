(* Timing microtests: small handcrafted programs whose cycle behaviour is
   predictable enough to pin down individual mechanisms — LSQ forwarding,
   port contention, bypass capacity, in-order head blocking, and I-cache
   pressure. *)

module C = Braid_core
module U = Braid_uarch
module B = Braid_workload.Build

let r n = Reg.ext Reg.Cint n
let i op = Instr.make op

let block id ?fallthrough instrs =
  { Program.id; instrs = Array.of_list instrs; fallthrough }

let run_prog ?(cfg = U.Config.ooo_8wide) ?(init_mem = []) prog =
  let out = Emulator.run ~init_mem prog in
  U.Core.result (U.Core.run cfg (Option.get out.Emulator.trace))

(* --- LSQ: store-to-load forwarding beats the cache ---------------------- *)

let forwarding_program ~same_addr =
  let load_off = if same_addr then 0 else 512 in
  Program.make
    [
      block 0
        [
          i (Op.Movi (r 1, 0x1000L));
          i (Op.Movi (r 2, 7L));
          i (Op.Store (r 2, r 1, 0, 0));
          i (Op.Load (r 3, r 1, load_off, 0));
          i (Op.Ibini (Op.Add, r 4, r 3, 1));
          i Op.Halt;
        ];
    ]
    ~entry:0

let test_forwarding_faster_than_cache () =
  (* make the cache path slow by keeping the D-cache cold *)
  let fwd = run_prog (forwarding_program ~same_addr:true) in
  let cold = run_prog (forwarding_program ~same_addr:false) in
  Alcotest.(check bool)
    (Printf.sprintf "forwarded %d < cold cache %d cycles" fwd.U.Core.cycles
       cold.U.Core.cycles)
    true
    (fwd.U.Core.cycles < cold.U.Core.cycles)

let test_load_waits_for_conflicting_store () =
  (* a load to the same address cannot complete before the store's data
     is ready: put a multiply chain in front of the store data *)
  let prog =
    Program.make
      [
        block 0
          [
            i (Op.Movi (r 1, 0x1000L));
            i (Op.Movi (r 2, 3L));
            i (Op.Ibin (Op.Mul, r 2, r 2, r 2));
            i (Op.Ibin (Op.Mul, r 2, r 2, r 2));
            i (Op.Ibin (Op.Mul, r 2, r 2, r 2));
            i (Op.Store (r 2, r 1, 0, 0));
            i (Op.Load (r 3, r 1, 0, 0));
            i Op.Halt;
          ];
      ]
      ~entry:0
  in
  let out = Emulator.run prog in
  Alcotest.(check bool) "load saw the store's value" true
    (Int64.equal 6561L (Emulator.read_ext out.Emulator.state (r 3)));
  let res = run_prog prog in
  (* three dependent multiplies at 3 cycles each bound the whole run *)
  Alcotest.(check bool) "cycles include the multiply chain" true
    (res.U.Core.cycles >= 9)

(* --- read-port contention ---------------------------------------------- *)

let port_hungry_program () =
  (* eight independent two-source adds per "wave": with 16 read ports they
     can all issue together; with 2 they trickle out *)
  let b = B.create () in
  let srcs = Array.init 8 (fun k -> B.const b Reg.Cint (Int64.of_int k)) in
  for _ = 1 to 12 do
    for k = 0 to 7 do
      let d = B.int_reg b in
      B.emit b (Op.Ibin (Op.Add, d, srcs.(k), srcs.((k + 1) mod 8)))
    done
  done;
  B.finish b

let test_read_ports_bind () =
  let prog, init_mem = port_hungry_program () in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let run ports =
    run_prog
      ~cfg:
        { U.Config.ooo_8wide with
          U.Config.name = Printf.sprintf "ooo-rp%d" ports;
          rf_read_ports = ports }
      ~init_mem conv
  in
  let wide = run 16 and narrow = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "2 ports (%d cycles) slower than 16 (%d)" narrow.U.Core.cycles
       wide.U.Core.cycles)
    true
    (narrow.U.Core.cycles > wide.U.Core.cycles)

let dependent_pairs_program () =
  (* producer/consumer pairs: consumers read results that, without bypass,
     only become visible after a register-file write *)
  let b = B.create () in
  for k = 0 to 31 do
    let x = B.const b Reg.Cint (Int64.of_int k) in
    let y = B.int_reg b in
    B.emit b (Op.Ibini (Op.Add, y, x, 1));
    let z = B.int_reg b in
    B.emit b (Op.Ibini (Op.Add, z, y, 1))
  done;
  B.finish b

let test_write_ports_bind () =
  (* write ports matter to consumers once the bypass cannot carry the
     value: visibility is writeback + 1 *)
  let prog, init_mem = dependent_pairs_program () in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let run ports =
    run_prog
      ~cfg:
        { U.Config.ooo_8wide with
          U.Config.name = Printf.sprintf "ooo-wp%d" ports;
          rf_write_ports = ports;
          bypass_per_cycle = 0 }
      ~init_mem conv
  in
  Alcotest.(check bool) "1 write port slower than 8 (no bypass)" true
    ((run 1).U.Core.cycles > (run 8).U.Core.cycles)

let test_bypass_capacity_matters () =
  (* dependent pairs: consumer wants the producer's value immediately; with
     no bypass it must wait for writeback *)
  let b = B.create () in
  for k = 0 to 31 do
    let x = B.const b Reg.Cint (Int64.of_int k) in
    let y = B.int_reg b in
    B.emit b (Op.Ibini (Op.Add, y, x, 1))
  done;
  let prog, init_mem = B.finish b in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let run n =
    run_prog
      ~cfg:
        { U.Config.ooo_8wide with
          U.Config.name = Printf.sprintf "ooo-by%d" n;
          bypass_per_cycle = n }
      ~init_mem conv
  in
  Alcotest.(check bool) "no bypass is slower" true
    ((run 0).U.Core.cycles >= (run 8).U.Core.cycles)

(* --- in-order head blocking --------------------------------------------- *)

let test_in_order_head_blocks () =
  (* two independent multiply chains: the OoO core overlaps them, the
     in-order core executes the second only after the first drains past
     its head (commit is in-order on both, so only overlapped *latency*
     distinguishes the cores) *)
  let b = B.create () in
  let x = B.const b Reg.Cint 3L in
  let y = B.const b Reg.Cint 5L in
  for _ = 1 to 12 do
    B.emit b (Op.Ibin (Op.Mul, x, x, x))
  done;
  for _ = 1 to 12 do
    B.emit b (Op.Ibin (Op.Mul, y, y, y))
  done;
  let prog, init_mem = B.finish b in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let io = run_prog ~cfg:U.Config.in_order_8wide ~init_mem conv in
  let oo = run_prog ~cfg:U.Config.ooo_8wide ~init_mem conv in
  Alcotest.(check bool)
    (Printf.sprintf "ooo (%d) beats in-order (%d) under a head block"
       oo.U.Core.cycles io.U.Core.cycles)
    true
    (oo.U.Core.cycles < io.U.Core.cycles)

(* --- braid distribute: single free BEU serialises braids ----------------- *)

let test_one_beu_serialises () =
  let prog, init_mem =
    Braid_workload.Spec.generate (Braid_workload.Spec.find "swim") ~seed:1 ~scale:1500
  in
  let braided = (C.Transform.run prog).C.Transform.program in
  let out = Emulator.run ~init_mem braided in
  let trace = Option.get out.Emulator.trace in
  let run n =
    U.Core.result (U.Core.run
      { U.Config.braid_8wide with
        U.Config.name = Printf.sprintf "braid-n%d" n;
        clusters = n }
      trace)
  in
  let one = run 1 and eight = run 8 in
  Alcotest.(check bool) "one BEU at least 2x slower than eight" true
    (one.U.Core.cycles > 2 * eight.U.Core.cycles)

(* --- I-cache pressure ----------------------------------------------------- *)

let test_icache_pressure () =
  (* a straight-line program bigger than the 64KB L1I: the first pass
     must miss even after warm-up filled what fits *)
  let b = B.create () in
  let x = B.const b Reg.Cint 1L in
  for _ = 1 to 20_000 do
    B.emit b (Op.Ibini (Op.Add, x, x, 1))
  done;
  let prog, init_mem = B.finish b in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let res = run_prog ~init_mem conv in
  Alcotest.(check bool)
    (Printf.sprintf "L1I misses occur (%d)" res.U.Core.l1i_misses)
    true
    (res.U.Core.l1i_misses > 0)

(* --- fetch width bounds throughput --------------------------------------- *)

let test_fetch_width_bounds () =
  let b = B.create () in
  for k = 0 to 255 do
    let d = B.int_reg b in
    B.emit b (Op.Movi (d, Int64.of_int k))
  done;
  let prog, init_mem = B.finish b in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let run w =
    run_prog ~cfg:(U.Config.scale_width U.Config.ooo_8wide w) ~init_mem conv
  in
  let narrow = run 4 and wide = run 16 in
  Alcotest.(check bool) "4-wide slower than 16-wide on independent code" true
    (narrow.U.Core.cycles > wide.U.Core.cycles);
  (* 257 instructions at 4/cycle need at least 64 fetch cycles *)
  Alcotest.(check bool) "width lower bound respected" true
    (narrow.U.Core.cycles >= 64)

let suite =
  ( "timing",
    [
      Alcotest.test_case "store-to-load forwarding" `Quick test_forwarding_faster_than_cache;
      Alcotest.test_case "load waits for store data" `Quick test_load_waits_for_conflicting_store;
      Alcotest.test_case "read ports bind" `Quick test_read_ports_bind;
      Alcotest.test_case "write ports bind" `Quick test_write_ports_bind;
      Alcotest.test_case "bypass capacity" `Quick test_bypass_capacity_matters;
      Alcotest.test_case "in-order head block" `Quick test_in_order_head_blocks;
      Alcotest.test_case "one BEU serialises" `Quick test_one_beu_serialises;
      Alcotest.test_case "icache pressure" `Quick test_icache_pressure;
      Alcotest.test_case "fetch width bounds" `Quick test_fetch_width_bounds;
    ] )

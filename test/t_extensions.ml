(* Tests for the extension features: the assembler, binary translation,
   the complexity model, BEU clustering, the OoO-in-BEU option, gshare,
   and dynamic braid statistics. *)

module C = Braid_core
module U = Braid_uarch
module Spec = Braid_workload.Spec

let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* --- Asm --- *)

let test_asm_simple_program () =
  let text =
    {|
; sum the numbers 1..5
B0:
  lda #0, r1
  lda #1, r2
B1:
  addq r1, r2, r1
  addqi r2, #1, r2
  cmplei r2, #5, r3
  bne r3, B1
B2:
  lda #4096, r4
  stq r1, 0(r4) @0
  halt
|}
  in
  let p = Asm.parse text in
  Alcotest.(check int) "three blocks" 3 (Program.num_blocks p);
  let out = Emulator.run p in
  Alcotest.(check i64) "1+2+3+4+5" 15L (Emulator.read_mem out.Emulator.state 4096)

let test_asm_errors () =
  let bad text =
    try
      ignore (Asm.parse text);
      false
    with Asm.Parse_error _ -> true
  in
  Alcotest.(check bool) "unknown mnemonic" true (bad "B0:\n  frobnicate r1, r2\n  halt");
  Alcotest.(check bool) "bad register" true (bad "B0:\n  addq q1, r2, r3\n  halt");
  Alcotest.(check bool) "instr before block" true (bad "  addq r1, r2, r3");
  Alcotest.(check bool) "out-of-order blocks" true (bad "B1:\n  halt");
  Alcotest.(check bool) "bad label" true (bad "B0:\n  br qq\n");
  Alcotest.(check bool) "empty input" true (bad "")

let test_asm_parse_instr_shapes () =
  let check s expect =
    Alcotest.(check string) s expect (Disasm.instr (Asm.parse_instr s))
  in
  check "addq r1, r2, r3" "  addq r1, r2, r3";
  check "ldq r3, 8(r1)" "  ldq r3, 8(r1)";
  check "stt f2, 0(r4)" "  stt f2, 0(r4)";
  check "cmovne r1, r2, r3" "  cmovne r1, r2, r3";
  check "sqrtt f1, f2" "  sqrtt f1, f2";
  check "bne r1, B7" "  bne r1, B7";
  check "lda #-12, r5" "  lda #-12, r5"

let test_asm_s_bit_and_dup () =
  let ins = Asm.parse_instr "S addq r1, t0, t1 [also r9]" in
  Alcotest.(check bool) "S bit" true ins.Instr.annot.Instr.braid_start;
  (match ins.Instr.annot.Instr.ext_dup with
  | Some r -> Alcotest.(check string) "dup reg" "r9" (Reg.to_string r)
  | None -> Alcotest.fail "expected ext dup");
  match ins.Instr.op with
  | Op.Ibin (Op.Add, d, _, b) ->
      Alcotest.(check string) "internal dst" "t1" (Reg.to_string d);
      Alcotest.(check string) "internal src" "t0" (Reg.to_string b)
  | _ -> Alcotest.fail "wrong op"

let qcheck_asm_roundtrip =
  QCheck.Test.make ~name:"asm round-trips generated binaries" ~count:15
    QCheck.(pair (int_range 0 25) (int_range 0 100))
    (fun (pidx, seed) ->
      let p = List.nth Spec.all pidx in
      let prog, init_mem = Spec.generate p ~seed ~scale:1200 in
      let conv = (C.Transform.conventional prog).C.Extalloc.program in
      let reparsed = Asm.parse (Disasm.program_asm conv) in
      let fp pr =
        Emulator.memory_fingerprint
          (Emulator.run ~max_steps:100_000 ~trace:false ~init_mem pr).Emulator.state
      in
      Int64.equal (fp conv) (fp reparsed))

let test_asm_roundtrip_braided () =
  (* braid annotations (S bits, [also ...]) survive the textual form well
     enough to execute identically *)
  let prog, init_mem = Spec.generate (Spec.find "gcc") ~seed:7 ~scale:1500 in
  let braided = (C.Transform.run prog).C.Transform.program in
  let reparsed = Asm.parse (Disasm.program_asm braided) in
  let fp pr =
    Emulator.memory_fingerprint
      (Emulator.run ~max_steps:100_000 ~trace:false ~init_mem pr).Emulator.state
  in
  Alcotest.(check i64) "braided asm round trip" (fp braided) (fp reparsed)

(* --- binary translation --- *)

let test_run_binary_equivalent () =
  List.iter
    (fun name ->
      let prog, init_mem = Spec.generate (Spec.find name) ~seed:1 ~scale:1500 in
      let conv = (C.Transform.conventional prog).C.Extalloc.program in
      let translated = (C.Transform.run_binary conv).C.Transform.program in
      let fp pr =
        Emulator.memory_fingerprint
          (Emulator.run ~max_steps:100_000 ~trace:false ~init_mem pr).Emulator.state
      in
      Alcotest.(check i64) (name ^ " translation equivalent") (fp conv) (fp translated))
    [ "gcc"; "mcf"; "mgrid"; "twolf"; "lucas" ]

let test_run_binary_rejects_virtual () =
  let prog, _ = Spec.generate (Spec.find "gcc") ~seed:1 ~scale:1000 in
  Alcotest.(check bool) "virtual input rejected" true
    (try
       ignore (C.Transform.run_binary prog);
       false
     with Invalid_argument _ -> true)

let test_run_binary_finds_internals () =
  let prog, _ = Spec.generate (Spec.find "mgrid") ~seed:1 ~scale:1500 in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let translated = (C.Transform.run_binary conv).C.Transform.program in
  let internals = ref 0 in
  Program.iter_instrs
    (fun _ _ ins -> if Instr.writes_internal ins then incr internals)
    translated;
  Alcotest.(check bool) "translation internalises values" true (!internals > 20)

(* --- complexity model --- *)

let test_complexity_ordering () =
  let total cfg = (U.Complexity.of_config cfg).U.Complexity.total in
  let ooo = total U.Config.ooo_8wide in
  let braid = total U.Config.braid_8wide in
  let io = total U.Config.in_order_8wide in
  Alcotest.(check bool) "braid far below ooo" true (braid < ooo /. 10.0);
  Alcotest.(check bool) "braid at most in-order-ish" true (braid < io);
  Alcotest.(check bool) "ooo wakeup broadcast largest" true
    ((U.Complexity.of_config U.Config.ooo_8wide).U.Complexity.wakeup_broadcast_per_result
    > (U.Complexity.of_config U.Config.braid_8wide).U.Complexity.wakeup_broadcast_per_result)

let test_complexity_rf_quadratic_in_ports () =
  let base = { U.Config.ooo_8wide with U.Config.ext_regs = 64 } in
  let doubled =
    { base with U.Config.rf_read_ports = 32; rf_write_ports = 16 }
  in
  let a = (U.Complexity.of_config base).U.Complexity.rf_area in
  let b = (U.Complexity.of_config doubled).U.Complexity.rf_area in
  Alcotest.(check (float 1e-6)) "doubling ports quadruples RF area" 4.0 (b /. a)

let test_complexity_describe () =
  let s = U.Complexity.describe U.Config.braid_8wide in
  Alcotest.(check bool) "describe mentions config" true
    (Astring_contains.contains s "braid-8")

let activity_run name cfg =
  let prog, init_mem = Spec.generate (Spec.find name) ~seed:1 ~scale:1500 in
  let binary =
    match cfg.U.Config.kind with
    | U.Config.Braid_exec | U.Config.Cgooo ->
        (C.Transform.run prog).C.Transform.program
    | _ -> (C.Transform.conventional prog).C.Extalloc.program
  in
  let out = Emulator.run ~max_steps:100_000 ~init_mem binary in
  U.Core.result (U.Core.run ~warm_data:(List.map fst init_mem) cfg (Option.get out.Emulator.trace))

let test_activity_counts () =
  let ooo = activity_run "mgrid" U.Config.ooo_8wide in
  let braid = activity_run "mgrid" U.Config.braid_8wide in
  let a = ooo.U.Core.activity and b = braid.U.Core.activity in
  Alcotest.(check int) "conventional code has no internal accesses" 0
    (a.U.Machine.int_rf_reads + a.U.Machine.int_rf_writes);
  Alcotest.(check bool) "braid uses the internal files" true
    (b.U.Machine.int_rf_writes > 0);
  Alcotest.(check bool) "braid makes fewer external reads" true
    (b.U.Machine.ext_rf_reads < a.U.Machine.ext_rf_reads);
  Alcotest.(check bool) "braid puts fewer values on the bypass" true
    (b.U.Machine.bypass_values < a.U.Machine.bypass_values)

(* --- braid-core variants --- *)

let test_clustering_costs () =
  let flat = activity_run "swim" U.Config.braid_8wide in
  let clustered =
    activity_run "swim"
      { U.Config.braid_8wide with
        U.Config.name = "braid-clu";
        beu_cluster_size = 2;
        inter_cluster_latency = 6 }
  in
  Alcotest.(check bool) "clustering with slow links costs cycles" true
    (clustered.U.Core.cycles >= flat.U.Core.cycles)

let test_beu_ooo_never_hurts () =
  List.iter
    (fun name ->
      let fifo = activity_run name U.Config.braid_8wide in
      let oooed =
        activity_run name
          { U.Config.braid_8wide with U.Config.name = "braid-oooed"; beu_out_of_order = true }
      in
      Alcotest.(check bool) (name ^ " ooo-in-beu >= fifo window") true
        (oooed.U.Core.cycles <= fifo.U.Core.cycles))
    [ "gcc"; "swim" ]

let test_gshare_works () =
  let r =
    activity_run "gcc"
      { U.Config.braid_8wide with U.Config.name = "braid-gsh"; predictor = U.Config.Gshare }
  in
  Alcotest.(check bool) "completes with gshare" true (r.U.Core.cycles > 0);
  Alcotest.(check bool) "mispredicts counted" true (r.U.Core.branch_mispredicts > 0)

let test_gshare_learns_bias () =
  let cfg = { U.Config.braid_8wide with U.Config.predictor = U.Config.Gshare } in
  let pred = U.Predictor.create cfg in
  for _ = 1 to 300 do
    ignore (U.Predictor.predict_and_train pred ~pc:0x40 ~taken:true)
  done;
  Alcotest.(check bool) "gshare learns constant branch" true
    (U.Predictor.accuracy pred > 0.95)

(* --- checkpoints and stall diagnostics --- *)

let test_checkpoint_limit_costs () =
  let unlimited = activity_run "gcc" U.Config.ooo_8wide in
  let one =
    activity_run "gcc"
      { U.Config.ooo_8wide with U.Config.name = "ooo-ckpt1"; max_unresolved_branches = 1 }
  in
  let eight =
    activity_run "gcc"
      { U.Config.ooo_8wide with U.Config.name = "ooo-ckpt8"; max_unresolved_branches = 8 }
  in
  Alcotest.(check bool) "1 checkpoint much slower" true
    (one.U.Core.cycles > unlimited.U.Core.cycles);
  Alcotest.(check bool) "monotone in checkpoints" true
    (eight.U.Core.cycles <= one.U.Core.cycles);
  Alcotest.(check bool) "8 checkpoints near unlimited" true
    (float_of_int eight.U.Core.cycles
    < 1.15 *. float_of_int unlimited.U.Core.cycles)

let test_stall_diagnostics () =
  let r = activity_run "parser" U.Config.braid_8wide in
  let s = r.U.Core.stalls in
  Alcotest.(check bool) "redirect stalls bounded by cycles" true
    (s.U.Core.fetch_redirect <= r.U.Core.cycles);
  Alcotest.(check bool) "mispredict-heavy code shows redirect stalls" true
    (s.U.Core.fetch_redirect > 0);
  Alcotest.(check bool) "occupancy positive" true (r.U.Core.avg_occupancy > 0.0);
  Alcotest.(check bool) "occupancy bounded by core capacity" true
    (r.U.Core.avg_occupancy
    <= float_of_int
         (U.Config.braid_8wide.U.Config.clusters
          * U.Config.braid_8wide.U.Config.cluster_entries
         + 64))

(* --- front-end fidelity options --- *)

let test_wrong_path_pollutes () =
  let base = activity_run "parser" U.Config.braid_8wide in
  let wp =
    activity_run "parser"
      { U.Config.braid_8wide with U.Config.name = "braid-wp"; model_wrong_path_fetch = true }
  in
  (* wrong-path fetch can only add I-cache traffic and cycles *)
  Alcotest.(check bool) "no speedup from pollution" true
    (wp.U.Core.cycles >= base.U.Core.cycles);
  Alcotest.(check bool) "results still complete" true
    (wp.U.Core.instructions = base.U.Core.instructions)

let test_btb_misses_cost () =
  let base = activity_run "gcc" U.Config.ooo_8wide in
  let tiny =
    activity_run "gcc"
      { U.Config.ooo_8wide with U.Config.name = "ooo-btb2"; btb_entries = 2 }
  in
  Alcotest.(check bool) "a 2-entry btb costs cycles" true
    (tiny.U.Core.cycles >= base.U.Core.cycles)

(* --- dynamic braid stats --- *)

let test_dynamic_stats () =
  let ctx = Braid_sim.Suite.create_ctx () in
  let p = Braid_sim.Suite.prepare ctx ~scale:1500 (Spec.find "gcc") in
  let d = C.Braid_stats.dynamic_of_trace (p.Braid_sim.Suite.braid_trace ()) in
  Alcotest.(check bool) "instances positive" true (d.C.Braid_stats.instances > 0);
  Alcotest.(check bool) "size >= 1" true (d.C.Braid_stats.dyn_avg_size >= 1.0);
  Alcotest.(check bool) "multi size >= 2" true (d.C.Braid_stats.dyn_avg_size_multi >= 2.0);
  Alcotest.(check bool) "single fraction in [0,1]" true
    (d.C.Braid_stats.dyn_single_fraction >= 0.0 && d.C.Braid_stats.dyn_single_fraction <= 1.0);
  (* every dynamic instance's instructions sum to the trace length *)
  let total =
    float_of_int d.C.Braid_stats.instances *. d.C.Braid_stats.dyn_avg_size
  in
  Alcotest.(check bool) "sizes sum to trace length" true
    (abs_float (total -. float_of_int (Trace.length (p.Braid_sim.Suite.braid_trace ()))) < 1.0)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "asm simple program" `Quick test_asm_simple_program;
      Alcotest.test_case "asm errors" `Quick test_asm_errors;
      Alcotest.test_case "asm instr shapes" `Quick test_asm_parse_instr_shapes;
      Alcotest.test_case "asm S bit and dup" `Quick test_asm_s_bit_and_dup;
      QCheck_alcotest.to_alcotest qcheck_asm_roundtrip;
      Alcotest.test_case "asm braided round trip" `Quick test_asm_roundtrip_braided;
      Alcotest.test_case "binary translation equivalent" `Quick test_run_binary_equivalent;
      Alcotest.test_case "binary translation rejects virtual" `Quick test_run_binary_rejects_virtual;
      Alcotest.test_case "binary translation internalises" `Quick test_run_binary_finds_internals;
      Alcotest.test_case "complexity ordering" `Quick test_complexity_ordering;
      Alcotest.test_case "rf area quadratic in ports" `Quick test_complexity_rf_quadratic_in_ports;
      Alcotest.test_case "complexity describe" `Quick test_complexity_describe;
      Alcotest.test_case "activity counters" `Quick test_activity_counts;
      Alcotest.test_case "clustering costs" `Quick test_clustering_costs;
      Alcotest.test_case "ooo-in-beu never hurts" `Quick test_beu_ooo_never_hurts;
      Alcotest.test_case "gshare works" `Quick test_gshare_works;
      Alcotest.test_case "gshare learns" `Quick test_gshare_learns_bias;
      Alcotest.test_case "wrong-path pollution" `Quick test_wrong_path_pollutes;
      Alcotest.test_case "btb misses cost" `Quick test_btb_misses_cost;
      Alcotest.test_case "checkpoint limit" `Quick test_checkpoint_limit_costs;
      Alcotest.test_case "stall diagnostics" `Quick test_stall_diagnostics;
      Alcotest.test_case "dynamic braid stats" `Quick test_dynamic_stats;
    ] )

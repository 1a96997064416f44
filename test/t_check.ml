(* Tests for the differential fuzzer: generator determinism, the oracle's
   clean path, fault injection (the oracle must catch a deliberately
   corrupted commit order and the shrinker must minimise the reproducer),
   and the zero-cost property of the invariant monitor. *)

module U = Braid_uarch
module C = Braid_core
module Ck = Braid_check

(* --- generator --- *)

let test_generate_deterministic () =
  let a = Ck.Gen.generate ~seed:42 ~index:3 in
  let b = Ck.Gen.generate ~seed:42 ~index:3 in
  Alcotest.(check bool) "same case" true (a = b);
  let pa, ma = Ck.Gen.build a and pb, mb = Ck.Gen.build b in
  Alcotest.(check bool) "same program" true (pa = pb && ma = mb);
  let c = Ck.Gen.generate ~seed:42 ~index:4 in
  Alcotest.(check bool) "different index differs" true (a <> c)

let test_subset_rebuild_stable () =
  (* dropping a fragment must not change what the survivors generate:
     the disassembly of a sub-case's program is a subsequence-respecting
     rebuild, not a reroll (per-fragment seeds) *)
  let case = Ck.Gen.generate ~seed:9 ~index:1 in
  match case.Ck.Gen.fragments with
  | first :: _ :: _ ->
      let solo = Ck.Gen.with_fragments case [ first ] in
      let solo2 = Ck.Gen.with_fragments case [ first ] in
      Alcotest.(check bool) "stable" true (Ck.Gen.build solo = Ck.Gen.build solo2)
  | _ -> ()

(* --- oracle clean path --- *)

let test_fuzz_clean () =
  let outcome = Ck.Fuzz.run ~invariants:true ~count:40 ~seed:7 () in
  Alcotest.(check int) "tested" 40 outcome.Ck.Fuzz.tested;
  Alcotest.(check int) "no failures" 0 (List.length outcome.Ck.Fuzz.failures)

(* without ~cores the oracle times every registered core kind *)
let test_oracle_default_cores () =
  let program, init_mem = Ck.Gen.build (Ck.Gen.generate ~seed:42 ~index:0) in
  let report = Ck.Oracle.check program ~init_mem in
  Alcotest.(check (list string)) "one report per kind" U.Config.Core_kind.names
    (List.map
       (fun (c : Ck.Oracle.core_report) -> U.Config.Core_kind.to_string c.Ck.Oracle.kind)
       report.Ck.Oracle.cores);
  Alcotest.(check bool) "clean" true (Ck.Oracle.ok report)

(* --- fault injection: commit-order bug --- *)

let swap_first_two a =
  let a = Array.copy a in
  if Array.length a >= 2 then begin
    let t = a.(0) in
    a.(0) <- a.(1);
    a.(1) <- t
  end;
  a

let injected_report case =
  let program, init_mem = Ck.Gen.build case in
  Ck.Oracle.check ~invariants:false ~inject_commit:swap_first_two program
    ~init_mem

let test_oracle_catches_commit_order () =
  let case =
    {
      Ck.Gen.seed = 0;
      index = 0;
      fragments =
        [
          { Ck.Gen.kind = Ck.Gen.Kernel Ck.Gen.Hash_mix; fseed = 11 };
          { Ck.Gen.kind = Ck.Gen.Branch_dense; fseed = 22 };
          { Ck.Gen.kind = Ck.Gen.Single_braids; fseed = 33 };
        ];
    }
  in
  let report = injected_report case in
  Alcotest.(check bool) "injected bug detected" false (Ck.Oracle.ok report);
  let kinds =
    List.map
      (fun (d : Ck.Oracle.divergence) -> d.Ck.Oracle.kind)
      report.Ck.Oracle.divergences
  in
  Alcotest.(check bool) "commit-order divergence reported" true
    (List.mem "commit-order" kinds);
  (* the uncorrupted oracle accepts the very same case *)
  let program, init_mem = Ck.Gen.build case in
  Alcotest.(check bool) "clean oracle accepts" true
    (Ck.Oracle.ok (Ck.Oracle.check program ~init_mem));
  (* the shrinker minimises: the injection makes every sub-case fail, so
     greedy removal must reach a single fragment whose program is tiny *)
  let fails c = not (Ck.Oracle.ok (injected_report c)) in
  let reduced = Ck.Shrink.shrink ~fails case in
  Alcotest.(check int) "one fragment left" 1
    (List.length reduced.Ck.Gen.fragments);
  let program, _ = Ck.Gen.build reduced in
  Alcotest.(check bool) "reproducer has at most 2 basic blocks" true
    (Array.length program.Program.blocks <= 2);
  Alcotest.(check bool) "reduced case still fails" true (fails reduced)

(* --- invariant monitor: zero-cost when off, silent when clean --- *)

let test_monitor_off_identical () =
  let case = Ck.Gen.generate ~seed:3 ~index:5 in
  let program, init_mem = Ck.Gen.build case in
  let braid = (C.Transform.run program).C.Transform.program in
  let trace =
    Option.get (Emulator.run ~max_steps:200_000 ~init_mem braid).Emulator.trace
  in
  let cfg = U.Config.braid_8wide in
  let warm = List.map fst init_mem in
  let off = U.Core.result (U.Core.run ~warm_data:warm cfg trace) in
  let probe = U.Probe.create ~invariants:true cfg in
  let on = U.Core.result (U.Core.run ~probe ~warm_data:warm cfg trace) in
  Alcotest.(check bool) "results byte-identical with monitor on" true (off = on);
  Alcotest.(check int) "no violations" 0 (U.Probe.violation_count probe);
  Alcotest.(check int) "every instruction recorded at commit"
    (Trace.length trace)
    (Array.length (U.Probe.committed probe));
  (* commits were recorded in fetch order *)
  let committed = U.Probe.committed probe in
  Alcotest.(check bool) "commit order is fetch order" true
    (Array.for_all (fun i -> committed.(i) = i)
       (Array.init (Array.length committed) Fun.id))

(* --- direct hook checks --- *)

let nop_event uid =
  {
    Trace.uid;
    pc = 4 * uid;
    block_id = 0;
    offset = uid;
    instr = Instr.make Op.Nop;
    deps = [||];
    addr = -1;
    is_load = false;
    is_store = false;
    is_cond_branch = false;
    is_jump = false;
    taken = false;
    latency = 1;
    writes_ext = false;
    writes_int = false;
    ext_src_reads = 0;
    int_src_reads = 0;
    braid_id = -1;
    braid_start = false;
    faulting = false;
  }

let trace_of mk n =
  Trace.of_events
    (fst (Braid_workload.Build.finish (Braid_workload.Build.create ())))
    (Array.init n mk)

let nops = trace_of nop_event 3

(* Probe.off records and checks nothing; a recorder-only probe records
   the commit stream but checks no invariant *)
let test_probe_off () =
  U.Probe.on_commit U.Probe.off nops ~cycle:0 ~beu:(-1) 1;
  Alcotest.(check int) "off has no violations" 0
    (U.Probe.violation_count U.Probe.off);
  Alcotest.(check int) "off records nothing" 0
    (Array.length (U.Probe.committed U.Probe.off));
  let probe = U.Probe.create ~invariants:false U.Config.braid_8wide in
  (* out of order: would be a commit.order violation if checked *)
  U.Probe.on_commit probe nops ~cycle:0 ~beu:(-1) 1;
  Alcotest.(check int) "recorder records" 1 (Array.length (U.Probe.committed probe));
  Alcotest.(check int) "recorder not checking" 0 (U.Probe.violation_count probe)

let test_debug_commit_order_hook () =
  let probe = U.Probe.create U.Config.in_order_8wide in
  U.Probe.on_commit probe nops ~cycle:0 ~beu:(-1) 0;
  U.Probe.on_commit probe nops ~cycle:1 ~beu:(-1) 2;
  (* skipped uid 1 *)
  Alcotest.(check int) "violation recorded" 1 (U.Probe.violation_count probe);
  match U.Probe.violations probe with
  | [ v ] ->
      Alcotest.(check string) "invariant name" "commit.order"
        v.U.Probe.invariant;
      Alcotest.(check int) "offending uid" 2 v.U.Probe.uid
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_debug_extfile_capacity_hook () =
  let cfg = { U.Config.in_order_8wide with U.Config.ext_regs = 2 } in
  let probe = U.Probe.create cfg in
  let ext_write uid =
    { (nop_event uid) with
      Trace.instr =
        Instr.make (Op.Movi (Reg.ext Reg.Cint uid, Int64.of_int uid));
      writes_ext = true }
  in
  let writes = trace_of ext_write 3 in
  U.Probe.on_dispatch probe writes ~cycle:0 ~beu:(-1) 0;
  U.Probe.on_dispatch probe writes ~cycle:0 ~beu:(-1) 1;
  Alcotest.(check int) "at capacity: fine" 0 (U.Probe.violation_count probe);
  U.Probe.on_dispatch probe writes ~cycle:1 ~beu:(-1) 2;
  Alcotest.(check int) "over capacity flagged" 1 (U.Probe.violation_count probe);
  U.Probe.on_ext_release probe ~cycle:2 ~uid:0;
  U.Probe.on_ext_release probe ~cycle:2 ~uid:1;
  U.Probe.on_ext_release probe ~cycle:2 ~uid:2;
  U.Probe.on_ext_release probe ~cycle:2 ~uid:0;
  (* fourth release: more frees than allocations *)
  Alcotest.(check int) "double release flagged" 2 (U.Probe.violation_count probe)

let suite =
  ( "check",
    [
      Alcotest.test_case "generator deterministic" `Quick
        test_generate_deterministic;
      Alcotest.test_case "subset rebuild stable" `Quick
        test_subset_rebuild_stable;
      Alcotest.test_case "fuzz 40 cases clean" `Slow test_fuzz_clean;
      Alcotest.test_case "oracle checks every core kind by default" `Quick
        test_oracle_default_cores;
      Alcotest.test_case "oracle catches injected commit-order bug" `Quick
        test_oracle_catches_commit_order;
      Alcotest.test_case "monitor off is byte-identical" `Quick
        test_monitor_off_identical;
      Alcotest.test_case "probe off" `Quick test_probe_off;
      Alcotest.test_case "commit-order hook" `Quick
        test_debug_commit_order_hook;
      Alcotest.test_case "extfile capacity hook" `Quick
        test_debug_extfile_capacity_hook;
    ] )

(* Tests for the microarchitecture substrate: caches, predictor, and the
   five execution cores through the pipeline. *)

module C = Braid_core
module U = Braid_uarch
module Spec = Braid_workload.Spec

(* --- Cache --- *)

let small_geometry =
  { U.Config.size_bytes = 512; ways = 2; line_bytes = 64; latency = 3 }

let test_cache_hit_miss () =
  let c = U.Cache.create small_geometry in
  Alcotest.(check bool) "cold miss" false (U.Cache.access c 0);
  Alcotest.(check bool) "then hit" true (U.Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (U.Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (U.Cache.access c 64);
  Alcotest.(check int) "hits counted" 2 (U.Cache.hits c);
  Alcotest.(check int) "misses counted" 2 (U.Cache.misses c)

let test_cache_lru () =
  (* 512B / 64B lines / 2 ways = 4 sets; lines mapping to set 0 are
     multiples of 4*64=256 *)
  let c = U.Cache.create small_geometry in
  ignore (U.Cache.access c 0);
  ignore (U.Cache.access c 256);
  (* set 0 now holds lines {0, 256}; touch 0 to make 256 the LRU *)
  ignore (U.Cache.access c 0);
  ignore (U.Cache.access c 512);
  (* evicts 256 *)
  Alcotest.(check bool) "mru survives" true (U.Cache.access c 0);
  Alcotest.(check bool) "lru evicted" false (U.Cache.access c 256)

let test_hierarchy_latencies () =
  let h = U.Mem_hier.create_hierarchy U.Config.default_memory in
  let l1 = U.Config.default_memory.U.Config.l1d.U.Config.latency in
  let l2 = U.Config.default_memory.U.Config.l2.U.Config.latency in
  let mem = U.Config.default_memory.U.Config.memory_latency in
  Alcotest.(check int) "cold: full chain" (l1 + l2 + mem) (U.Mem_hier.data_latency h 0x4000);
  Alcotest.(check int) "warm: l1 hit" l1 (U.Mem_hier.data_latency h 0x4000);
  (* instruction side behaves likewise *)
  Alcotest.(check int) "icache cold" (3 + l2 + mem) (U.Mem_hier.instr_latency h 0x8000);
  Alcotest.(check int) "icache warm" 3 (U.Mem_hier.instr_latency h 0x8000)

let test_perfect_caches () =
  let m =
    { U.Config.default_memory with U.Config.perfect_icache = true; perfect_dcache = true }
  in
  let h = U.Mem_hier.create_hierarchy m in
  Alcotest.(check int) "perfect icache" 1 (U.Mem_hier.instr_latency h 0x123440);
  Alcotest.(check int) "perfect dcache is l1 latency" 3 (U.Mem_hier.data_latency h 0x998800)

let test_warm_does_not_count () =
  let h = U.Mem_hier.create_hierarchy U.Config.default_memory in
  U.Mem_hier.warm_instr h 0x1000;
  U.Mem_hier.warm_l2 h 0x2000;
  Alcotest.(check (pair int int)) "l1i stats untouched" (0, 0) (U.Mem_hier.l1i_stats h);
  Alcotest.(check (pair int int)) "l2 stats untouched" (0, 0) (U.Mem_hier.l2_stats h);
  (* but the state is warm *)
  Alcotest.(check int) "warm line hits l1i" 3 (U.Mem_hier.instr_latency h 0x1000);
  Alcotest.(check int) "warm data hits l2" (3 + 6) (U.Mem_hier.data_latency h 0x2000)

(* --- Predictor --- *)

let test_perceptron_learns_constant () =
  let pred = U.Predictor.create U.Config.ooo_8wide in
  for _ = 1 to 200 do
    ignore (U.Predictor.predict_and_train pred ~pc:0x40 ~taken:true)
  done;
  Alcotest.(check bool) "always-taken learned" true
    (U.Predictor.accuracy pred > 0.95)

let test_perceptron_learns_alternation () =
  let pred = U.Predictor.create U.Config.ooo_8wide in
  let flip = ref false in
  (* warm up, then measure *)
  for _ = 1 to 500 do
    flip := not !flip;
    ignore (U.Predictor.predict_and_train pred ~pc:0x80 ~taken:!flip)
  done;
  let correct = ref 0 in
  for _ = 1 to 200 do
    flip := not !flip;
    if U.Predictor.predict_and_train pred ~pc:0x80 ~taken:!flip then incr correct
  done;
  Alcotest.(check bool)
    (Printf.sprintf "alternation learned (%d/200)" !correct)
    true (!correct > 180)

let test_perfect_predictor () =
  let pred = U.Predictor.create (U.Config.perfect_frontend U.Config.ooo_8wide) in
  let rng = Prng.create 5L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "always right" true
      (U.Predictor.predict_and_train pred ~pc:0x10 ~taken:(Prng.bool rng))
  done;
  Alcotest.(check int) "no mispredicts" 0 (U.Predictor.mispredicts pred)

(* --- Pipeline over the four cores --- *)

let trace_for ?(scale = 1500) ?(seed = 1) name =
  let profile = Spec.find name in
  let prog, init_mem = Spec.generate profile ~seed ~scale in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let braid = (C.Transform.run prog).C.Transform.program in
  let tr pr = Option.get (Emulator.run ~max_steps:100_000 ~init_mem pr).Emulator.trace in
  (tr conv, tr braid, List.map fst init_mem)

let test_all_cores_complete () =
  List.iter
    (fun name ->
      let conv, braid, warm = trace_for name in
      List.iter
        (fun cfg ->
          let r = U.Core.result (U.Core.run ~warm_data:warm cfg conv) in
          Alcotest.(check int)
            (name ^ "/" ^ cfg.U.Config.name ^ " commits everything")
            (Trace.length conv) r.U.Core.instructions;
          Alcotest.(check bool) "positive ipc" true (r.U.Core.ipc > 0.0))
        [ U.Config.in_order_8wide; U.Config.dep_steer_8wide; U.Config.ooo_8wide ];
      let r = U.Core.result (U.Core.run ~warm_data:warm U.Config.braid_8wide braid) in
      Alcotest.(check bool) (name ^ " braid completes") true (r.U.Core.cycles > 0))
    [ "gcc"; "mcf"; "swim"; "twolf" ]

let test_cycles_at_least_critical () =
  (* an N-instruction fully serial chain cannot finish faster than the sum
     of latencies on any core *)
  let b = Braid_workload.Build.create () in
  let acc = Braid_workload.Build.const b Reg.Cint 1L in
  for _ = 1 to 50 do
    Braid_workload.Build.emit b (Op.Ibini (Op.Add, acc, acc, 1))
  done;
  let prog, init_mem = Braid_workload.Build.finish b in
  let conv = (C.Transform.conventional prog).C.Extalloc.program in
  let trace = Option.get (Emulator.run ~init_mem conv).Emulator.trace in
  List.iter
    (fun cfg ->
      let r = U.Core.result (U.Core.run cfg trace) in
      Alcotest.(check bool)
        (cfg.U.Config.name ^ " respects the dependence chain")
        true
        (r.U.Core.cycles >= 50))
    [ U.Config.in_order_8wide; U.Config.ooo_8wide ]

let test_ooo_beats_in_order () =
  let conv, _, warm = trace_for "eon" in
  let io = U.Core.result (U.Core.run ~warm_data:warm U.Config.in_order_8wide conv) in
  let oo = U.Core.result (U.Core.run ~warm_data:warm U.Config.ooo_8wide conv) in
  Alcotest.(check bool) "ooo faster than in-order" true
    (oo.U.Core.cycles < io.U.Core.cycles)

let test_perfect_predictor_helps () =
  let conv, _, warm = trace_for "vpr" in
  let real = U.Core.result (U.Core.run ~warm_data:warm U.Config.ooo_8wide conv) in
  let perfect =
    U.Core.result (U.Core.run ~warm_data:warm
      { (U.Config.perfect_frontend U.Config.ooo_8wide) with U.Config.name = "ooo-perf" }
      conv)
  in
  Alcotest.(check bool) "perfect front end no slower" true
    (perfect.U.Core.cycles <= real.U.Core.cycles)

let test_more_registers_monotone () =
  let conv, _, warm = trace_for "twolf" in
  let cycles n =
    (U.Core.result (U.Core.run ~warm_data:warm
       { U.Config.ooo_8wide with U.Config.ext_regs = n; name = Printf.sprintf "ooo-r%d" n }
       conv)).U.Core.cycles
  in
  let c8 = cycles 8 and c32 = cycles 32 and c256 = cycles 256 in
  Alcotest.(check bool) "8 <= 32 regs helps" true (c32 <= c8);
  Alcotest.(check bool) "32 <= 256 regs helps" true (c256 <= c32)

let test_more_beus_monotone () =
  let _, braid, warm = trace_for "swim" in
  let cycles n =
    (U.Core.result (U.Core.run ~warm_data:warm
       { U.Config.braid_8wide with U.Config.clusters = n; name = Printf.sprintf "braid-b%d" n }
       braid)).U.Core.cycles
  in
  let c1 = cycles 1 and c4 = cycles 4 and c8 = cycles 8 in
  Alcotest.(check bool) "1 -> 4 BEUs helps" true (c4 < c1);
  Alcotest.(check bool) "4 -> 8 BEUs helps" true (c8 <= c4)

let test_wider_window_monotone () =
  let _, braid, warm = trace_for "mgrid" in
  let cycles w =
    (U.Core.result (U.Core.run ~warm_data:warm
       { U.Config.braid_8wide with U.Config.sched_window = w; name = Printf.sprintf "braid-w%d" w }
       braid)).U.Core.cycles
  in
  Alcotest.(check bool) "window 2 >= window 1" true (cycles 2 <= cycles 1)

let test_mispredict_penalty_costs () =
  let conv, _, warm = trace_for "parser" in
  let cycles p =
    (U.Core.result (U.Core.run ~warm_data:warm
       { U.Config.ooo_8wide with U.Config.misprediction_penalty = p; name = Printf.sprintf "ooo-p%d" p }
       conv)).U.Core.cycles
  in
  Alcotest.(check bool) "deeper pipeline costs" true (cycles 40 > cycles 10)

let test_branch_stats_populated () =
  let conv, _, warm = trace_for "gcc" in
  let r = U.Core.result (U.Core.run ~warm_data:warm U.Config.ooo_8wide conv) in
  Alcotest.(check bool) "lookups counted" true (r.U.Core.branch_lookups > 0);
  Alcotest.(check bool) "mispredict rate sane" true
    (r.U.Core.branch_mispredicts <= r.U.Core.branch_lookups)

let test_fault_serializes () =
  (* a program with an FP divide-by-zero: the braid pipeline must complete
     and report the fault *)
  let b = Braid_workload.Build.create () in
  let zero_f = Braid_workload.Build.const b Reg.Cfp 0L in
  let one_f = Braid_workload.Build.const b Reg.Cfp 1L in
  let q = Braid_workload.Build.fp_reg b in
  Braid_workload.Build.emit b (Op.Fbin (Op.Fdiv, q, one_f, zero_f));
  let out, region, _ = Braid_workload.Build.alloc_array b ~words:1 ~init:(fun _ -> 0L) in
  Braid_workload.Build.emit b (Op.Store (q, out, 0, region));
  let prog, init_mem = Braid_workload.Build.finish b in
  let braided = (C.Transform.run prog).C.Transform.program in
  let trace = Option.get (Emulator.run ~init_mem braided).Emulator.trace in
  let r = U.Core.result (U.Core.run U.Config.braid_8wide trace) in
  Alcotest.(check int) "one fault" 1 r.U.Core.faults;
  Alcotest.(check bool) "completed" true (r.U.Core.cycles > 0)

let test_speedup_helper () =
  let conv, _, warm = trace_for "gcc" in
  let a = U.Core.result (U.Core.run ~warm_data:warm U.Config.in_order_8wide conv) in
  let b = U.Core.result (U.Core.run ~warm_data:warm U.Config.ooo_8wide conv) in
  let s = U.Core.speedup a b in
  Alcotest.(check (float 1e-9)) "speedup definition"
    (float_of_int a.U.Core.cycles /. float_of_int b.U.Core.cycles)
    s

let qcheck_all_cores_all_benchmarks =
  QCheck.Test.make ~name:"every paradigm completes every benchmark" ~count:15
    QCheck.(pair (int_range 0 25) (int_range 0 100))
    (fun (pidx, seed) ->
      let p = List.nth Spec.all pidx in
      let prog, init_mem = Spec.generate p ~seed ~scale:1200 in
      let conv = (C.Transform.conventional prog).C.Extalloc.program in
      let braid = (C.Transform.run prog).C.Transform.program in
      let tr pr = Option.get (Emulator.run ~max_steps:100_000 ~init_mem pr).Emulator.trace in
      let warm = List.map fst init_mem in
      let conv_t = tr conv and braid_t = tr braid in
      List.for_all
        (fun cfg ->
          (U.Core.result (U.Core.run ~warm_data:warm cfg conv_t)).U.Core.cycles > 0)
        [ U.Config.in_order_8wide; U.Config.dep_steer_8wide; U.Config.ooo_8wide ]
      && (U.Core.result (U.Core.run ~warm_data:warm U.Config.braid_8wide braid_t)).U.Core.cycles > 0)

(* --- do_issue precondition guards --- *)

let tiny_program () =
  fst (Braid_workload.Build.finish (Braid_workload.Build.create ()))

let mk_event ?(deps = [||]) ?(addr = -1) ?(is_load = false) ?(is_store = false)
    ~uid instr =
  {
    Trace.uid;
    pc = 4 * uid;
    block_id = 0;
    offset = uid;
    instr;
    deps;
    addr;
    is_load;
    is_store;
    is_cond_branch = false;
    is_jump = false;
    taken = false;
    latency = 1;
    writes_ext = Instr.writes_external instr;
    writes_int = Instr.writes_internal instr;
    ext_src_reads = Instr.reads_external_count instr;
    int_src_reads = 0;
    braid_id = -1;
    braid_start = false;
    faulting = false;
  }

let trace_of_events events = Trace.of_events (tiny_program ()) events

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let expect_invalid name f needle =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument msg ->
      if not (contains msg needle) then
        Alcotest.failf "%s: message %S does not mention %S" name msg needle

let store_at ~uid addr =
  mk_event ~uid ~is_store:true ~addr
    (Instr.make (Op.Store (Reg.ext Reg.Cint 0, Reg.zero, 0, Op.region_unknown)))

let load_at ?deps ~uid addr =
  mk_event ?deps ~uid ~is_load:true ~addr
    (Instr.make (Op.Load (Reg.ext Reg.Cint 1, Reg.zero, 0, Op.region_unknown)))

(* A machine over hand-built events at cycle 0, and dispatch as the
   core's loop does it: [can_dispatch], then [note_dispatch]. *)
let machine_of events =
  let m = U.Machine.create U.Config.in_order_8wide (trace_of_events events) in
  U.Machine.begin_cycle m;
  m

let dispatch m u =
  Alcotest.(check bool)
    (Printf.sprintf "uid %d dispatches" u)
    true
    (U.Machine.can_dispatch m u (U.Machine.decode m u) = U.Machine.Block_none);
  U.Machine.note_dispatch m u

let test_do_issue_guards () =
  let dispatched events =
    let m = machine_of events in
    Array.iteri (fun u _ -> dispatch m u) events;
    m
  in
  (* issuing before dispatch: dependences are counted at dispatch, so an
     undispatched instruction must not pass for ready *)
  let m = machine_of [| store_at ~uid:0 0; load_at ~uid:1 ~deps:[| (0, false) |] 64 |] in
  dispatch m 0;
  expect_invalid "issue before dispatch"
    (fun () -> U.Machine.do_issue m 1)
    "instruction 1 has not dispatched";
  (* issuing the same instruction twice *)
  let m = dispatched [| store_at ~uid:0 0; load_at ~uid:1 64 |] in
  U.Machine.do_issue m 0;
  expect_invalid "double issue" (fun () -> U.Machine.do_issue m 0) "already issued";
  (* issuing with unready producers *)
  let m = dispatched [| store_at ~uid:0 0; load_at ~uid:1 ~deps:[| (0, false) |] 64 |] in
  expect_invalid "unready producers" (fun () -> U.Machine.do_issue m 1) "waits on";
  (* issuing a load while an older same-address store is unresolved *)
  let m = dispatched [| store_at ~uid:0 0; load_at ~uid:1 0 |] in
  expect_invalid "memory-blocked load" (fun () -> U.Machine.do_issue m 1) "blocked"

(* The store queue. A load dispatched behind two in-flight stores to its
   address waits for the younger one and then forwards from it in one
   cycle; unissued stores to another address, before and after that
   store, change nothing. Once the conflicting store has committed, the
   load reads the data cache and pays the L1D latency. *)
let test_store_queue () =
  let events =
    [| store_at ~uid:0 0; store_at ~uid:1 128; store_at ~uid:2 0;
       store_at ~uid:3 128; load_at ~uid:4 0 |]
  in
  let status =
    Alcotest.testable
      (fun fmt s ->
        Format.pp_print_string fmt
          (match s with
          | U.Machine.Mem_blocked -> "blocked"
          | U.Machine.Mem_forward -> "forward"
          | U.Machine.Mem_cache -> "cache"))
      ( = )
  in
  let check name m expected =
    Alcotest.check status name expected (U.Machine.mem_ready m 4)
  in
  (* stores 0 and 2 issue at cycle 0 and 1, complete a cycle later *)
  let m = machine_of events in
  Array.iteri (fun u _ -> dispatch m u) events;
  check "behind unissued stores" m U.Machine.Mem_blocked;
  U.Machine.do_issue m 0;
  U.Machine.begin_cycle m;
  check "older store complete, younger unissued" m U.Machine.Mem_blocked;
  U.Machine.do_issue m 2;
  check "younger store in execution" m U.Machine.Mem_blocked;
  U.Machine.begin_cycle m;
  check "younger store complete" m U.Machine.Mem_forward;
  U.Machine.do_issue m 4;
  Alcotest.(check int) "forwarding takes one cycle" 3 (U.Machine.complete_cycle m 4);
  (* the same, but stores 0 to 2 commit before the load issues *)
  let m = machine_of events in
  Array.iteri (fun u _ -> dispatch m u) events;
  List.iter (U.Machine.do_issue m) [ 0; 1; 2 ];
  U.Machine.begin_cycle m;
  check "before commit" m U.Machine.Mem_forward;
  U.Machine.commit_stage m;
  Alcotest.(check int) "stores committed" 3 (U.Machine.committed_count m);
  check "conflicting store committed" m U.Machine.Mem_cache;
  U.Machine.do_issue m 4;
  Alcotest.(check int) "a cache read pays the L1D latency"
    (1 + U.Config.in_order_8wide.U.Config.mem.U.Config.l1d.U.Config.latency)
    (U.Machine.complete_cycle m 4);
  (* a load dispatched after its store committed finds no conflict *)
  let m = machine_of events in
  List.iter (dispatch m) [ 0; 1; 2; 3 ];
  List.iter (U.Machine.do_issue m) [ 0; 1; 2 ];
  U.Machine.begin_cycle m;
  U.Machine.commit_stage m;
  dispatch m 4;
  check "dispatched after the commit" m U.Machine.Mem_cache

(* --- run state sized by the in-flight window --- *)

(* [Machine.create] allocates for the in-flight window, not the trace:
   on gzip at scales 12,000 and 100,000 it allocates the same to within
   0.1 words per added instruction, on every kind. *)
let test_create_window_sized () =
  let ctx = Braid_sim.Suite.create_ctx () in
  let traces scale =
    let p = Braid_sim.Suite.prepare ctx ~scale (Spec.find "gzip") in
    List.map
      (fun kind ->
        let cfg = U.Config.preset_of_kind kind in
        (cfg, Braid_sim.Suite.trace p cfg))
      U.Config.Core_kind.all
  in
  let created (cfg, t) =
    (* from an empty minor heap: a minor collection inside the measured
       region skews the count by tens of thousands of words *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (U.Machine.create cfg t));
    ((Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8), Trace.length t)
  in
  List.iter2
    (fun small large ->
      let (w_small, n_small), (w_large, n_large) = (created small, created large) in
      let per_instr = (w_large -. w_small) /. float_of_int (n_large - n_small) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f then %.0f words, %.4f per added instruction < 0.1"
           (fst small).U.Config.name w_small w_large per_instr)
        true (per_instr < 0.1))
    (traces 12_000) (traces 100_000)

(* One write port and a one-value bypass under a two-instruction window.
   Producers 0 and 1 complete together at cycle 1: 0 takes the bypass,
   1 waits for the port behind it and is readable only at cycle 3, after
   both have committed. Nops 2 and 3 take the two slots; 3 would reuse
   1's, so the ring keeps 1's state, and consumer 4, dispatched at cycle
   2, wakes exactly at cycle 3. 0's state is gone, and asking for it
   raises. *)
let test_late_value_survives_reuse () =
  let writer uid = mk_event ~uid (Instr.make (Op.Movi (Reg.ext Reg.Cint (1 + uid), 1L))) in
  let nop uid = mk_event ~uid (Instr.make Op.Nop) in
  let reader =
    mk_event ~uid:4 ~deps:[| (1, false) |]
      (Instr.make (Op.Ibin (Op.Add, Reg.ext Reg.Cint 3, Reg.ext Reg.Cint 2, Reg.zero)))
  in
  let cfg =
    Result.get_ok
      (U.Config.override U.Config.in_order_8wide
         [ ("inflight", "2"); ("rf_write_ports", "1"); ("bypass_per_cycle", "1") ])
  in
  let m =
    U.Machine.create cfg (trace_of_events [| writer 0; writer 1; nop 2; nop 3; reader |])
  in
  let cycle () =
    U.Machine.begin_cycle m;
    U.Machine.commit_stage m
  in
  cycle ();
  List.iter (dispatch m) [ 0; 1 ];
  List.iter (U.Machine.do_issue m) [ 0; 1 ];
  cycle ();
  Alcotest.(check int) "producers committed at cycle 1" 2 (U.Machine.committed_count m);
  List.iter (dispatch m) [ 2; 3 ];
  List.iter (U.Machine.do_issue m) [ 2; 3 ];
  cycle ();
  Alcotest.(check int) "nops committed at cycle 2" 4 (U.Machine.committed_count m);
  dispatch m 4;
  Alcotest.(check bool) "cycle 2: the value is not yet readable" false
    (U.Machine.reg_ready m 4);
  Alcotest.(check int) "the producer's state survives" 1 (U.Machine.complete_cycle m 1);
  cycle ();
  Alcotest.(check bool) "cycle 3: the consumer wakes" true (U.Machine.reg_ready m 4);
  expect_invalid "an evicted uid"
    (fun () -> ignore (U.Machine.complete_cycle m 0 : int))
    "instruction 0 has left the in-flight window"

(* --- Exec_core across every kind: drain and refusal accounting --- *)

(* A short single-braid / single-block dependence chain every core kind
   accepts: event 0 carries the S bit (braid steering) and offset 0
   (block steering); the rest ride the same braid/block. *)
let chain_events n =
  Array.init n (fun uid ->
      let dst = Reg.ext Reg.Cint (1 + (uid mod 4)) in
      let instr =
        if uid = 0 then Instr.make (Op.Movi (dst, 1L))
        else Instr.make (Op.Ibin (Op.Add, dst, Reg.ext Reg.Cint (uid mod 4), Reg.zero))
      in
      let deps = if uid = 0 then [||] else [| (uid - 1, false) |] in
      let e = mk_event ~deps ~uid instr in
      if uid = 0 then { e with Trace.braid_id = 0; braid_start = true }
      else { e with Trace.braid_id = 0 })

(* The Core drive loop, reduced to its contract: begin_cycle, commit,
   core cycle, then in-order dispatch — no fetch front-end. *)
let drive_to_drain cfg events =
  let t = trace_of_events events in
  let m = U.Machine.create cfg t in
  let core = U.Exec_core.create m in
  let n = Array.length events in
  let next = ref 0 in
  let guard = ref 0 in
  while (not (U.Machine.all_committed m)) && !guard < 10_000 do
    incr guard;
    U.Machine.begin_cycle m;
    U.Machine.commit_stage m;
    U.Exec_core.cycle core;
    let continue = ref true in
    while !continue && !next < n do
      let u = !next in
      let w = U.Machine.decode m u in
      if
        U.Machine.can_dispatch m u w = U.Machine.Block_none
        && U.Exec_core.try_dispatch core u w
      then begin
        U.Machine.note_dispatch m u;
        incr next
      end
      else continue := false
    done
  done;
  Alcotest.(check bool) "drained within the cycle guard" true
    (U.Machine.all_committed m);
  (core, m)

let test_occupancy_drains_all_kinds () =
  List.iter
    (fun kind ->
      let name = U.Config.Core_kind.to_string kind in
      let core, m =
        drive_to_drain (U.Config.preset_of_kind kind) (chain_events 12)
      in
      Alcotest.(check int)
        (name ^ ": occupancy back to 0 after drain")
        0 (U.Exec_core.occupancy core);
      Alcotest.(check int) (name ^ ": dispatched") 12 (U.Machine.dispatched_count m);
      Alcotest.(check int) (name ^ ": issued") 12 (U.Machine.issued_count m);
      Alcotest.(check int) (name ^ ": committed") 12 (U.Machine.committed_count m))
    U.Config.Core_kind.all

(* Shrink every kind's steering structure to a single one-entry queue /
   window so the second dispatch must be refused: a refusal is reported
   by [try_dispatch]'s return value and inserts nothing, however often it
   repeats. *)
let test_dispatch_refusals_insert_nothing () =
  List.iter
    (fun kind ->
      let name = U.Config.Core_kind.to_string kind in
      let cfg =
        {
          (U.Config.preset_of_kind kind) with
          U.Config.clusters = 1;
          fus_per_cluster = 1;
          cluster_entries = 1;
          sched_window = 1;
          block_windows = 1;
          block_head_window = 1;
        }
      in
      let t = trace_of_events (chain_events 3) in
      let m = U.Machine.create cfg t in
      let core = U.Exec_core.create m in
      U.Machine.begin_cycle m;
      let try_dispatch u = U.Exec_core.try_dispatch core u (U.Machine.decode m u) in
      Alcotest.(check bool) (name ^ ": first dispatch accepted") true (try_dispatch 0);
      Alcotest.(check int) (name ^ ": one resident") 1 (U.Exec_core.occupancy core);
      Alcotest.(check bool) (name ^ ": full core refuses") false (try_dispatch 1);
      Alcotest.(check int) (name ^ ": refusal inserts nothing") 1
        (U.Exec_core.occupancy core);
      Alcotest.(check bool) (name ^ ": still refuses") false (try_dispatch 1);
      Alcotest.(check int) (name ^ ": second refusal inserts nothing") 1
        (U.Exec_core.occupancy core))
    U.Config.Core_kind.all

(* Dep-steer's choice on three 3-entry FIFOs, nothing issuing: a FIFO
   whose tail produces [u] and that has room, the lowest such, else the
   first empty FIFO, else a refusal. Uids 0 and 1 open FIFOs 0 and 1,
   and 2 follows its producer 0. Both tails produce 3, which takes the
   lower FIFO though its dependence on 1 comes first. FIFO 0 is then
   full, so 4 takes FIFO 1, whose tail also produces it. 5 has no
   producer and opens FIFO 2. 6's producer 1 sits in FIFO 1 behind 4,
   not at its tail, and no FIFO is empty. *)
let test_dep_steer_choice () =
  let cfg =
    { U.Config.dep_steer_8wide with U.Config.clusters = 3; cluster_entries = 3 }
  in
  let op uid deps =
    let dst = Reg.ext Reg.Cint (1 + uid) in
    mk_event ~uid ~deps:(Array.map (fun p -> (p, false)) deps)
      (Instr.make
         (if deps = [||] then Op.Movi (dst, 1L)
          else Op.Ibin (Op.Add, dst, Reg.ext Reg.Cint (1 + deps.(0)), Reg.zero)))
  in
  let events =
    [| op 0 [||]; op 1 [||]; op 2 [| 0 |]; op 3 [| 1; 2 |]; op 4 [| 1; 3 |]; op 5 [||];
       op 6 [| 1 |] |]
  in
  let m = U.Machine.create cfg (trace_of_events events) in
  let core = U.Exec_core.create m in
  let steer u =
    U.Machine.begin_cycle m;
    let w = U.Machine.decode m u in
    Alcotest.(check bool) (Printf.sprintf "uid %d may dispatch" u) true
      (U.Machine.can_dispatch m u w = U.Machine.Block_none);
    let before = U.Exec_core.occupancy core in
    if U.Exec_core.try_dispatch core u w then begin
      U.Machine.note_dispatch m u;
      U.Machine.home m u
    end
    else begin
      Alcotest.(check int) "a refusal inserts nothing" before
        (U.Exec_core.occupancy core);
      -1
    end
  in
  List.iter
    (fun (u, fifo, why) ->
      Alcotest.(check int) (Printf.sprintf "uid %d: %s" u why) fifo (steer u))
    [
      (0, 0, "the first empty FIFO");
      (1, 1, "no producing tail: the first empty FIFO");
      (2, 0, "its producer's FIFO");
      (3, 0, "two producing tails: the lower FIFO");
      (4, 1, "the lower producing FIFO full: the other");
      (5, 2, "no producing tail: the first empty FIFO");
      (6, -1, "a producer not at its FIFO's tail, no FIFO empty: refused");
    ]

(* A trace keeps under 3 words per instruction: the columns of two
   windows of gzip's braid binary from one start, of 10,000 and 20,000
   instructions, differ by at most 24 bytes per extra instruction (the
   static table and the program are shared). The columns live off the
   OCaml heap, where [Obj.reachable_words] does not look, so their bytes
   are counted. A hand-built trace reads back exactly the events it was
   built from. *)
let test_trace_footprint () =
  let prog, init_mem = Spec.generate (Spec.find "gzip") ~seed:1 ~scale:40_000 in
  let braid = (C.Transform.run prog).C.Transform.program in
  let run =
    Emulator.Compiled.start ~init_mem (Emulator.Compiled.compile braid)
  in
  let start = Emulator.Compiled.snapshot run in
  let window len =
    Emulator.Compiled.restore run start;
    let t = Emulator.Compiled.trace_window run ~max_steps:len in
    Alcotest.(check int) "window length" len (Trace.length t);
    Trace.column_bytes t
  in
  let short = window 10_000 in
  let per_instr = float_of_int (window 20_000 - short) /. 80_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f column words per instruction <= 3" per_instr)
    true (per_instr <= 3.0);
  List.iter
    (fun es ->
      let t = trace_of_events es in
      Array.iteri
        (fun u e ->
          Alcotest.(check bool)
            (Printf.sprintf "view %d of a hand-built trace" u)
            true
            (Trace.event t u = e))
        es)
    [
      [| store_at ~uid:0 0; load_at ~uid:1 ~deps:[| (0, false) |] 64 |];
      chain_events 5;
    ];
  (* a builder sized for three instructions keeps each instruction's
     dependences sorted without exact duplicates, promotes a first
     instruction inside a braid to a braid start, and refuses a fourth:
     its columns never grow *)
  let chain = trace_of_events (chain_events 3) in
  let statics = Array.init 3 (Trace.static chain) in
  let b = Trace.Builder.create statics (Trace.program chain) ~capacity:3 ~max_reads:3 in
  let push s = Trace.Builder.push b s ~addr:(-1) 0 in
  push 0;
  Trace.Builder.add_dep b 0 true;
  push 1;
  List.iter
    (fun (p, via) -> Trace.Builder.add_dep b p via)
    [ (1, false); (0, true); (0, false); (1, false) ];
  push 2;
  expect_invalid "a push past the capacity" (fun () -> push 0) "full at 3";
  let t = Trace.Builder.finish b Trace.Halted in
  let deps u = Array.to_list (Trace.event t u).Trace.deps in
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check (list (pair int bool))) "one dependence" [ (0, true) ] (deps 1);
  Alcotest.(check (list (pair int bool)))
    "sorted, deduplicated" [ (0, false); (0, true); (1, false) ] (deps 2);
  Alcotest.(check (list bool)) "braid starts" [ true; false; false ]
    (List.init 3 (Trace.braid_start t));
  (* a dependence entry packs a uid into 29 bits, and an instruction's
     entries fit the room its reads bound *)
  expect_invalid "capacity past the uid bound"
    (fun () ->
      ignore
        (Trace.Builder.create statics (Trace.program chain)
           ~capacity:((1 lsl 29) + 1) ~max_reads:1))
    "2^29";
  let b = Trace.Builder.create statics (Trace.program chain) ~capacity:3 ~max_reads:1 in
  expect_invalid "a producer not yet pushed"
    (fun () -> Trace.Builder.add_dep b 0 false)
    "not older";
  Trace.Builder.push b 0 ~addr:(-1) 0;
  Trace.Builder.push b 1 ~addr:(-1) 0;
  Trace.Builder.add_dep b 0 false;
  Trace.Builder.add_dep b 0 false;
  expect_invalid "more producers than reads"
    (fun () -> Trace.Builder.add_dep b 1 false)
    "more than 1";
  List.iter
    (fun s ->
      expect_invalid "a static index outside the table"
        (fun () -> Trace.Builder.push b s ~addr:(-1) 0)
        "outside a table of 3")
    [ -1; 3 ]

(* A stream keeps a window of its trace: reads outside it raise, a refill
   keeps every uid from [keep] up, and a core refuses a stream whose
   window is under its config's minimum, or a braid core one without
   release bits. *)
let test_stream_window () =
  let prog, init_mem = Spec.generate (Spec.find "gzip") ~seed:1 ~scale:2_000 in
  let braid = (C.Transform.run prog).C.Transform.program in
  let stored = Option.get (Emulator.run ~init_mem braid).Emulator.trace in
  let s = Emulator.stream ~init_mem ~capacity:8 braid in
  Alcotest.(check int) "nothing produced before a refill" 0 (Trace.produced s);
  expect_invalid "a uid not yet produced" (fun () -> ignore (Trace.static s 0)) "outside";
  Trace.refill s ~keep:0;
  Alcotest.(check int) "a window of one uid fewer than its capacity" 7 (Trace.produced s);
  Alcotest.(check int) "the offsets of the next uid" (Trace.dep_off stored 7)
    (Trace.dep_off s 7);
  expect_invalid "keep past the frontier" (fun () -> Trace.refill s ~keep:8) "outside";
  Trace.refill s ~keep:5;
  Alcotest.(check int) "refilled up to keep + capacity - 1" 12 (Trace.produced s);
  Alcotest.(check bool) "a kept uid reads back" true
    (Trace.event s 5 = Trace.event stored 5);
  expect_invalid "a dropped uid" (fun () -> ignore (Trace.addr s 4)) "outside";
  expect_invalid "a dropped uid's entries"
    (fun () -> ignore (Trace.dep_uid s (Trace.dep_off stored 5 - 1)))
    "outside";
  expect_invalid "a capacity not a power of two"
    (fun () -> ignore (Emulator.stream ~init_mem ~capacity:6 braid))
    "power of two";
  let cfg = U.Config.braid_8wide in
  Alcotest.(check int) "the presets' minimum window" 512 (U.Core.min_window cfg);
  expect_invalid "a window under the minimum"
    (fun () ->
      ignore
        (U.Core.create cfg
           (Emulator.stream ~init_mem ~capacity:(U.Core.min_window cfg / 2) braid)))
    "minimum";
  expect_invalid "a braid core on a stream without release bits"
    (fun () ->
      ignore
        (U.Core.create cfg
           (Emulator.stream ~init_mem ~release:false ~capacity:(U.Core.min_window cfg)
              braid)))
    "release bits";
  Alcotest.(check bool) "a cgooo core reads no release bits" true
    (U.Core.result
       (U.Core.run U.Config.cgooo_8wide
          (Emulator.stream ~init_mem ~release:false ~capacity:512 braid))
    = U.Core.result (U.Core.run U.Config.cgooo_8wide stored))

(* A single write port drains a long reservation backlog without a
   commit for thousands of cycles: with a 2-cycle memory the progress
   guard's bound is only 4,104 cycles, yet art at scale 2000 completes,
   in as many cycles as with a 400-cycle memory. *)
let test_write_port_backlog_not_deadlock () =
  let ctx = Braid_sim.Suite.create_ctx () in
  let p = Braid_sim.Suite.prepare ctx ~scale:2000 (Spec.find "art") in
  let cycles latency =
    let cfg =
      Result.get_ok
        (U.Config.override U.Config.ooo_8wide
           [ ("rf_write_ports", "1"); ("memory_latency", latency) ])
    in
    (Braid_sim.Suite.run ctx p cfg).U.Core.cycles
  in
  Alcotest.(check int) "memory_latency 400" 10_723 (cycles "400");
  Alcotest.(check int) "memory_latency 2" 10_723 (cycles "2")

(* Random valid configurations run: from each preset, 2 to 5 sweepable
   fields set to 0..4, kept when [Config.validate] accepts them, on five
   benchmarks at scale 2000. Any exception fails the case and names the
   config. *)
let test_random_valid_configs () =
  let ctx = Braid_sim.Suite.create_ctx () in
  let preps =
    List.map
      (fun b -> Braid_sim.Suite.prepare ctx ~scale:2000 (Spec.find b))
      [ "gzip"; "mcf"; "swim"; "crafty"; "art" ]
  in
  let rng = Prng.create 31L in
  let fields = Array.of_list U.Config.sweepable_fields in
  let valid = ref 0 in
  List.iter
    (fun preset ->
      let drawn = ref 0 in
      while !drawn < 12 do
        let kvs =
          List.init
            (2 + Prng.int rng 4)
            (fun _ ->
              (fields.(Prng.int rng (Array.length fields)), string_of_int (Prng.int rng 5)))
        in
        match Result.bind (U.Config.override preset kvs) U.Config.validate with
        | Error _ -> ()
        | Ok cfg ->
            incr drawn;
            List.iter
              (fun p ->
                match Braid_sim.Suite.run ctx p cfg with
                | _ -> ()
                | exception e ->
                    Alcotest.failf "%s on %s: %s" (U.Config.to_json cfg)
                      p.Braid_sim.Suite.profile.Spec.name (Printexc.to_string e))
              preps
      done;
      valid := !valid + !drawn)
    U.Config.presets;
  Alcotest.(check int) "valid configs run" 60 !valid

(* The cycle loop allocates (next to) nothing: across the [Core.step]
   loop of 100k-instruction gzip and swim runs with [Probe.off], at most
   one minor-heap word per simulated cycle on every kind, over a stored
   trace and over a stream at the config's minimum window, whose refills
   trace every instruction inside the loop. Loads and stores are 29% of
   swim's instructions, so a store queue that allocated per store would
   show there. Allocation is deterministic for a given build, so this
   bound does not flake. *)
let test_step_allocation () =
  let ctx = Braid_sim.Suite.create_ctx () in
  List.iter
    (fun bench ->
      let p = Braid_sim.Suite.prepare ctx ~scale:100_000 (Spec.find bench) in
      List.iter
        (fun kind ->
          let cfg = U.Config.preset_of_kind kind in
          let program =
            if U.Config.Core_kind.braid_binary kind then
              p.Braid_sim.Suite.braid.C.Transform.program
            else p.Braid_sim.Suite.conventional.C.Extalloc.program
          in
          List.iter
            (fun (how, trace) ->
              let core = U.Core.create ~warm_data:p.Braid_sim.Suite.warm_data cfg trace in
              let before = Gc.minor_words () in
              while not (U.Core.finished core) do
                U.Core.step core
              done;
              let words = Gc.minor_words () -. before in
              let per_cycle = words /. float_of_int (U.Core.result core).U.Core.cycles in
              Alcotest.(check bool)
                (Printf.sprintf "%s on %s, %s: %.3f minor words per cycle <= 1.0"
                   (U.Config.Core_kind.to_string kind) bench how per_cycle)
                true (per_cycle <= 1.0))
            [
              ("stored", Braid_sim.Suite.trace p cfg);
              ( "streamed",
                Emulator.stream ~max_steps:(50 * p.Braid_sim.Suite.scale)
                  ~init_mem:p.Braid_sim.Suite.init_mem ~capacity:(U.Core.min_window cfg)
                  program );
            ])
        U.Config.Core_kind.all)
    [ "gzip"; "swim" ]


(* --- Decode once at fetch --- *)

(* Every static instruction of every benchmark, both binaries: the word
   [Machine.Word.of_static] builds decodes back to its static record,
   with no dynamic bit set. *)
let test_words_decode_statics () =
  let ctx = Braid_sim.Suite.create_ctx () in
  let module W = U.Machine.Word in
  List.iter
    (fun pr ->
      let p = Braid_sim.Suite.prepare ctx ~scale:1200 pr in
      List.iter
        (fun (binary, trace) ->
          Array.iter
            (fun (s : Trace.static) ->
              let w = W.of_static s in
              let decoded =
                [ W.is_load w; W.is_store w; W.is_cond_branch w; W.is_jump w;
                  W.is_branch w; W.writes_ext w; W.writes_int w; W.is_leader w;
                  W.is_taken w; W.is_faulting w; W.is_braid_start w; W.no_ext_reader w ]
              and fields =
                [ s.Trace.is_load; s.Trace.is_store; s.Trace.is_cond_branch;
                  s.Trace.is_jump; Trace.branch_of s; s.Trace.writes_ext;
                  s.Trace.writes_int; s.Trace.offset = 0; false; false; false; false ]
              in
              if
                decoded <> fields
                || (W.ext_reads w, W.int_reads w, W.latency w, W.pc w)
                   <> (s.Trace.ext_src_reads, s.Trace.int_src_reads, s.Trace.latency,
                       s.Trace.pc)
              then
                Alcotest.failf "%s %s: the word of pc %d does not decode to its record"
                  pr.Spec.name binary s.Trace.pc)
            (Trace.statics (trace ())))
        [ ("conventional", p.Braid_sim.Suite.conv_trace);
          ("braid", p.Braid_sim.Suite.braid_trace) ])
    Spec.all

(* The word fetch queues for each uid ([Machine.decode]) carries the
   trace's dynamic bits and its static record's word, from a stored
   trace and from a stream refilled as fetch refills it; the stream's
   bits, from its pre-pass, equal the stored trace's. *)
let test_fetch_words_carry_dynamic_bits () =
  let module W = U.Machine.Word in
  List.iter
    (fun name ->
      let prog, init_mem = Spec.generate (Spec.find name) ~seed:1 ~scale:4_000 in
      List.iter
        (fun (cfg, binary) ->
          let stored = Option.get (Emulator.run ~init_mem binary).Emulator.trace in
          let stream = Emulator.stream ~init_mem ~capacity:(U.Core.min_window cfg) binary in
          let ms = U.Machine.create cfg stored and mw = U.Machine.create cfg stream in
          for u = 0 to Trace.length stored - 1 do
            if u = Trace.produced stream then Trace.refill stream ~keep:u;
            let bits t w =
              ( (W.is_braid_start w, W.no_ext_reader w, W.is_taken w, W.is_faulting w),
                (Trace.braid_start t u, Trace.no_ext_reader t u, Trace.taken t u,
                 Trace.faulting t u) )
            in
            let ws = U.Machine.decode ms u and ww = U.Machine.decode mw u in
            let got_s, want_s = bits stored ws and got_w, want_w = bits stream ww in
            if got_s <> want_s || got_w <> want_w || want_w <> want_s then
              Alcotest.failf "%s on %s: uid %d's fetched bits differ from the trace's"
                name cfg.U.Config.name u;
            if
              ws land lnot 0xff <> W.of_static (Trace.static stored u)
              || ww <> ws
            then
              Alcotest.failf "%s on %s: uid %d's fetched word is not its record's" name
                cfg.U.Config.name u
          done)
        [ (U.Config.braid_8wide, (C.Transform.run prog).C.Transform.program);
          (U.Config.ooo_8wide, (C.Transform.conventional prog).C.Extalloc.program) ])
    [ "gzip"; "mcf"; "crafty"; "swim"; "art"; "mgrid" ]

(* --- Perceptron weights as bytes --- *)

(* The int-array perceptron the byte table replaced, kept as the
   reference: 512 rows of a bias and 64 weights, clamped to ±127,
   trained on a misprediction or a sum within theta. *)
module Ref_perceptron = struct
  let bits = 64
  let rows = 512
  let theta = int_of_float ((1.93 *. float_of_int bits) +. 14.0)

  type t = {
    w : int array;
    h : int array;
    mutable lookups : int;
    mutable mispredicts : int;
  }

  let create () =
    { w = Array.make (rows * (bits + 1)) 0; h = Array.make bits (-1); lookups = 0;
      mispredicts = 0 }

  let clamp v = Int.max (-127) (Int.min 127 v)

  let step ~stats t ~pc ~taken =
    let row = ((pc lsr 2) land (rows - 1)) * (bits + 1) in
    let sum = ref t.w.(row) in
    for i = 1 to bits do
      sum := !sum + (t.h.(i - 1) * t.w.(row + i))
    done;
    let correct = !sum >= 0 = taken in
    if stats then begin
      t.lookups <- t.lookups + 1;
      if not correct then t.mispredicts <- t.mispredicts + 1
    end;
    let o = if taken then 1 else -1 in
    if (not correct) || abs !sum <= theta then begin
      t.w.(row) <- clamp (t.w.(row) + o);
      for i = 1 to bits do
        t.w.(row + i) <- clamp (t.w.(row + i) + (t.h.(i - 1) * o))
      done
    end;
    Array.blit t.h 0 t.h 1 (bits - 1);
    t.h.(0) <- o;
    correct
end

(* Random streams over many rows and saturating streams on a few, each
   branch through [predict_and_train] or [warm] at random: every
   prediction, both counts and every weight must match the reference. *)
let test_byte_perceptron_matches_reference () =
  let rng = Prng.create 0x5eedL in
  let check_stream what stream =
    let p = U.Predictor.create U.Config.braid_8wide and r = Ref_perceptron.create () in
    List.iteri
      (fun k (pc, taken, warm) ->
        if warm then begin
          U.Predictor.warm p ~pc ~taken;
          ignore (Ref_perceptron.step ~stats:false r ~pc ~taken)
        end
        else if
          U.Predictor.predict_and_train p ~pc ~taken
          <> Ref_perceptron.step ~stats:true r ~pc ~taken
        then Alcotest.failf "%s: prediction %d differs from the reference" what k)
      stream;
    Alcotest.(check (pair int int))
      (what ^ ": lookups and mispredicts")
      (r.Ref_perceptron.lookups, r.Ref_perceptron.mispredicts)
      (U.Predictor.lookups p, U.Predictor.mispredicts p);
    Alcotest.(check (array int)) (what ^ ": every weight") r.Ref_perceptron.w
      (U.Predictor.weights p)
  in
  check_stream "random"
    (List.init 200_000 (fun _ ->
         (4 * Prng.int rng 4096, Prng.bool rng, Prng.chance rng 0.3)));
  (* a few biased branches: weights run into both clamps *)
  check_stream "saturating"
    (List.init 60_000 (fun k ->
         let pc = 4 * (k mod 3) in
         (pc, (if pc = 4 then k mod 7 <> 0 else pc = 0), Prng.chance rng 0.5)));
  check_stream "patterned"
    (List.init 60_000 (fun k -> (4 * (k mod 5), k mod 3 = 0, k mod 11 = 0)));
  (* a random branch, then one that copies it or one that inverts it:
     the second's newest history weight keeps training at +127 or −127,
     where a lane must hold rather than wrap *)
  let clamped =
    List.concat
      (List.init 40_000 (fun k ->
           let r = Prng.bool rng and pc = 0x100 * (1 + (k land 1)) in
           [ (pc, r, Prng.chance rng 0.3);
             (pc + 4, (if k land 1 = 0 then r else not r), Prng.chance rng 0.3) ]))
  in
  check_stream "clamped" clamped;
  let r = Ref_perceptron.create () in
  List.iter (fun (pc, taken, _) -> ignore (Ref_perceptron.step ~stats:false r ~pc ~taken)) clamped;
  let history_weights =
    List.filteri (fun k _ -> k mod 65 <> 0) (Array.to_list r.Ref_perceptron.w)
  in
  Alcotest.(check (pair bool bool)) "clamped: history weights at +127 and at -127"
    (true, true)
    (List.mem 127 history_weights, List.mem (-127) history_weights)

(* A predictor step allocates nothing, on any kind: the cycle loop
   trains the predictor on every branch it fetches, and a sampled
   warm-up on tens of thousands more before each window. *)
let test_predictor_step_allocation () =
  let rng = Prng.create 0xa110cL in
  let pcs = Array.init 4096 (fun _ -> 4 * Prng.int rng 2048) in
  let taken = Array.init 4096 (fun _ -> Prng.chance rng 0.6) in
  List.iter
    (fun (what, kind) ->
      let p = U.Predictor.create { U.Config.braid_8wide with U.Config.predictor = kind } in
      let before = Gc.minor_words () in
      for k = 0 to 299_999 do
        let j = k land 4095 in
        if k land 3 = 0 then U.Predictor.warm p ~pc:pcs.(j) ~taken:taken.(j)
        else ignore (U.Predictor.predict_and_train p ~pc:pcs.(j) ~taken:taken.(j) : bool)
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) (what ^ ": minor words over 300,000 steps") 0.0 words)
    [
      ("perceptron", U.Config.Perceptron);
      ("gshare", U.Config.Gshare);
      ("perfect", U.Config.Perfect_prediction);
    ]

(* --- L2 warm-up once per line --- *)

(* Warming a program's data image once per L2 line leaves the L2 as
   warming every word does: on mcf's and art's images, the same long
   random access stream hits and misses alike in both, and the counts
   end equal. *)
let test_warm_once_per_line () =
  List.iter
    (fun name ->
      let _, init_mem = Spec.generate (Spec.find name) ~seed:1 ~scale:12_000 in
      let image = List.map fst init_mem in
      let mem = U.Config.braid_8wide.U.Config.mem in
      let per_word = U.Mem_hier.create_hierarchy mem
      and per_line = U.Mem_hier.create_hierarchy mem in
      List.iter (U.Mem_hier.warm_l2 per_word) image;
      U.Mem_hier.warm_l2_lines per_line image;
      let lo = List.fold_left Int.min max_int image
      and hi = List.fold_left Int.max 0 image in
      let rng = Prng.create 7L in
      for k = 1 to 300_000 do
        (* mostly the image, some addresses around and past it *)
        let addr = lo + Prng.int rng (2 * (hi - lo + 1)) in
        let a = U.Mem_hier.data_latency per_word addr
        and b = U.Mem_hier.data_latency per_line addr in
        if a <> b then
          Alcotest.failf "%s: access %d to %#x: %d cycles after per-word warming, %d per line"
            name k addr a b
      done;
      Alcotest.(check (pair int int)) (name ^ ": L2 counts")
        (U.Mem_hier.l2_stats per_word) (U.Mem_hier.l2_stats per_line);
      Alcotest.(check (pair int int)) (name ^ ": L1D counts")
        (U.Mem_hier.l1d_stats per_word) (U.Mem_hier.l1d_stats per_line))
    [ "mcf"; "art" ]

let suite =
  ( "uarch",
    [
      Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
      Alcotest.test_case "cache lru" `Quick test_cache_lru;
      Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
      Alcotest.test_case "perfect caches" `Quick test_perfect_caches;
      Alcotest.test_case "warm accesses uncounted" `Quick test_warm_does_not_count;
      Alcotest.test_case "perceptron constant" `Quick test_perceptron_learns_constant;
      Alcotest.test_case "perceptron alternation" `Quick test_perceptron_learns_alternation;
      Alcotest.test_case "perfect predictor" `Quick test_perfect_predictor;
      Alcotest.test_case "all cores complete" `Slow test_all_cores_complete;
      Alcotest.test_case "dependence chain bound" `Quick test_cycles_at_least_critical;
      Alcotest.test_case "ooo beats in-order" `Quick test_ooo_beats_in_order;
      Alcotest.test_case "perfect predictor helps" `Quick test_perfect_predictor_helps;
      Alcotest.test_case "registers monotone" `Quick test_more_registers_monotone;
      Alcotest.test_case "BEUs monotone" `Quick test_more_beus_monotone;
      Alcotest.test_case "window monotone" `Quick test_wider_window_monotone;
      Alcotest.test_case "penalty costs" `Quick test_mispredict_penalty_costs;
      Alcotest.test_case "branch stats" `Quick test_branch_stats_populated;
      Alcotest.test_case "fault serialises" `Quick test_fault_serializes;
      Alcotest.test_case "speedup helper" `Quick test_speedup_helper;
      Alcotest.test_case "do_issue guards" `Quick test_do_issue_guards;
      Alcotest.test_case "store queue" `Quick test_store_queue;
      Alcotest.test_case "create sized by the window" `Slow test_create_window_sized;
      Alcotest.test_case "late value survives slot reuse" `Quick
        test_late_value_survives_reuse;
      Alcotest.test_case "occupancy drains on every kind" `Quick
        test_occupancy_drains_all_kinds;
      Alcotest.test_case "dispatch refusals insert nothing" `Quick
        test_dispatch_refusals_insert_nothing;
      Alcotest.test_case "dep-steer steering choice" `Quick test_dep_steer_choice;
      Alcotest.test_case "trace footprint" `Quick test_trace_footprint;
      Alcotest.test_case "stream window" `Quick test_stream_window;
      Alcotest.test_case "write-port backlog is not a deadlock" `Quick
        test_write_port_backlog_not_deadlock;
      Alcotest.test_case "random valid configs run" `Quick test_random_valid_configs;
      Alcotest.test_case "cycle loop allocation bound" `Slow test_step_allocation;
      Alcotest.test_case "words decode every static record" `Quick
        test_words_decode_statics;
      Alcotest.test_case "fetched words carry the trace's bits" `Quick
        test_fetch_words_carry_dynamic_bits;
      Alcotest.test_case "byte perceptron equals the int reference" `Quick
        test_byte_perceptron_matches_reference;
      Alcotest.test_case "predictor step allocates nothing" `Quick
        test_predictor_step_allocation;
      Alcotest.test_case "data image warmed once per line" `Quick test_warm_once_per_line;
      QCheck_alcotest.to_alcotest qcheck_all_cores_all_benchmarks;
    ] )

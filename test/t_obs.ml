(* Observability tests: the counter dump read off a finished core, the
   occupancy histogram, the tracer's bounded ring, the Chrome trace_event
   export (parsed back with the same Json module the CLI uses to
   self-validate), the probe's zero-cost off path, and the reconciliation
   of cache hit/miss statistics against latency charges. *)

module C = Braid_core
module U = Braid_uarch
module Obs = Braid_obs

(* one braided benchmark trace, shared across tests *)
let scale = 1000

let prepared =
  lazy
    (let profile = Braid_workload.Spec.find "gzip" in
     let program, init_mem = Braid_workload.Spec.generate profile ~seed:1 ~scale in
     let braided = (C.Transform.run program).C.Transform.program in
     let out = Emulator.run ~max_steps:(50 * scale) ~init_mem braided in
     (Option.get out.Emulator.trace, List.map fst init_mem))

let run_braid ?probe () =
  let trace, warm_data = Lazy.force prepared in
  U.Core.run ?probe ~warm_data U.Config.braid_8wide trace

let count core name =
  match List.assoc_opt name (U.Core.counters core) with
  | Some (U.Core.Count n) -> n
  | Some _ -> Alcotest.failf "%s is a histogram" name
  | None -> Alcotest.failf "counter %s not in the dump" name

(* (bounds, counts, observations, sum) *)
let occupancy core =
  match List.assoc_opt "core.occupancy" (U.Core.counters core) with
  | Some (U.Core.Hist { bounds; counts; observations; sum }) ->
      (bounds, counts, observations, sum)
  | _ -> Alcotest.fail "core.occupancy histogram not in the dump"

(* --- counters accumulate across a run ---------------------------------- *)

let test_counters_accumulate () =
  let core = run_braid () in
  let r = U.Core.result core in
  Alcotest.(check int) "commit.instrs = instructions" r.U.Core.instructions
    (count core "commit.instrs");
  Alcotest.(check int) "dispatch = commit" (count core "commit.instrs")
    (count core "dispatch.instrs");
  Alcotest.(check int) "issue = commit" (count core "commit.instrs")
    (count core "issue.instrs");
  Alcotest.(check bool) "fetch >= commit" true
    (count core "fetch.instrs" >= count core "commit.instrs");
  Alcotest.(check int) "l1d.misses matches result" r.U.Core.l1d_misses
    (count core "l1d.misses");
  Alcotest.(check int) "stall.dispatch_core matches result"
    r.U.Core.stalls.U.Core.dispatch_core
    (count core "stall.dispatch_core");
  (* every allocated external entry is released exactly once: early
     (dead-value) or at commit *)
  Alcotest.(check int) "allocs = early + commit releases"
    (count core "extfile.allocs")
    (count core "extfile.early_releases" + count core "extfile.commit_releases");
  Alcotest.(check bool) "braid releases some entries early" true
    (count core "extfile.early_releases" > 0);
  let _, _, observations, _ = occupancy core in
  Alcotest.(check int) "one occupancy sample per cycle" (r.U.Core.cycles + 1)
    observations;
  Alcotest.check_raises "no dump before the run finishes"
    (Invalid_argument "Core.counters: the core has not committed its whole trace")
    (fun () ->
      let trace, warm_data = Lazy.force prepared in
      ignore
        (U.Core.counters (U.Core.create ~warm_data U.Config.braid_8wide trace)))

(* --- histogram buckets -------------------------------------------------- *)

(* Bucket [i] holds occupancies in (bounds.(i-1), bounds.(i)], the last one
   everything above the top bound: the histogram's sum must lie inside the
   range its bucket counts imply, and agree with the result's mean. *)
let test_histogram_buckets () =
  let core = run_braid () in
  let r = U.Core.result core in
  let bounds, counts, observations, sum = occupancy core in
  let nb = Array.length bounds in
  Alcotest.(check (array int)) "bounds" [| 0; 2; 4; 8; 16; 32; 64; 128; 256 |]
    bounds;
  Alcotest.(check int) "one overflow bucket" (nb + 1) (Array.length counts);
  Alcotest.(check int) "counts sum to observations" observations
    (Array.fold_left ( + ) 0 counts);
  let lo = ref 0 and hi = ref 0 in
  Array.iteri
    (fun i c ->
      lo := !lo + (c * if i = 0 then 0 else bounds.(i - 1) + 1);
      if i < nb then hi := !hi + (c * bounds.(i)))
    counts;
  let overflow = counts.(nb) > 0 in
  Alcotest.(check bool) "sum within the bucket ranges" true
    (!lo <= sum && (overflow || sum <= !hi));
  Alcotest.(check (float 1e-9)) "sum agrees with avg_occupancy"
    r.U.Core.avg_occupancy
    (float_of_int sum /. float_of_int r.U.Core.cycles)

(* --- tracer ring buffer ------------------------------------------------- *)

let stall c = Obs.Tracer.Stall { cycle = c; track = -1; reason = "t" }

let test_ring_drops_oldest () =
  let tr = Obs.Tracer.create ~capacity:4 () in
  for c = 0 to 5 do
    Obs.Tracer.record tr (stall c)
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Tracer.length tr);
  Alcotest.(check int) "dropped counted" 2 (Obs.Tracer.dropped tr);
  let cycles =
    List.map
      (function Obs.Tracer.Stall { cycle; _ } -> cycle | _ -> -1)
      (Obs.Tracer.events tr)
  in
  Alcotest.(check (list int)) "oldest dropped, oldest-first order" [ 2; 3; 4; 5 ]
    cycles

(* --- Chrome export round-trips through the Json parser ------------------ *)

let test_chrome_roundtrip () =
  let tracer = Obs.Tracer.create () in
  let probe = U.Probe.create ~tracer ~invariants:false U.Config.braid_8wide in
  ignore (run_braid ~probe ());
  let doc = Obs.Chrome.export tracer in
  let j = Json.parse_exn doc in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "events non-empty" true (events <> []);
  let thread_names =
    List.filter_map
      (fun e ->
        match (Json.member "ph" e, Json.member "args" e) with
        | Some (Json.Str "M"), Some args -> (
            match Json.member "name" args with
            | Some (Json.Str n) -> Some n
            | _ -> None)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "at least one BEU track" true
    (List.exists
       (fun n -> String.length n >= 3 && String.sub n 0 3 = "BEU")
       thread_names);
  Alcotest.(check bool) "a stall carries its reason" true
    (List.exists
       (fun e ->
         match Json.member "args" e with
         | Some args -> Json.member "reason" args <> None
         | None -> false)
       events);
  (* the compact printer round-trips what it parsed *)
  Alcotest.(check bool) "print/parse round-trip" true
    (Json.parse_exn (Json.to_string j) = j)

(* --- the off probe records nothing and changes nothing ------------------ *)

let test_disabled_records_nothing () =
  let plain = run_braid () in
  Alcotest.(check int) "off records no commits" 0
    (Array.length (U.Probe.committed U.Probe.off));
  (* a probe does not perturb the simulation *)
  let tracer = Obs.Tracer.create () in
  let probed = run_braid ~probe:(U.Probe.create ~tracer U.Config.braid_8wide) () in
  Alcotest.(check bool) "probed run traced" true (Obs.Tracer.length tracer > 0);
  Alcotest.(check bool) "identical result" true
    (U.Core.result plain = U.Core.result probed);
  Alcotest.(check bool) "identical counter dump" true
    (U.Core.counters plain = U.Core.counters probed)

(* --- cache statistics reconcile with latency charges -------------------- *)

let small_l1 = { U.Config.size_bytes = 256; ways = 2; line_bytes = 64; latency = 1 }

let mem_cfg =
  {
    U.Config.l1i = small_l1;
    l1d = small_l1;
    l2 = { U.Config.size_bytes = 4096; ways = 4; line_bytes = 64; latency = 6 };
    memory_latency = 100;
    perfect_icache = false;
    perfect_dcache = false;
  }

let test_cache_reconcile () =
  let h = U.Mem_hier.create_hierarchy mem_cfg in
  (* 2-way, 64B lines, 2 sets: 0, 128 and 256 all map to set 0.
     0 M, 0 H, 128 M, 0 H, 256 M (evicts LRU 128), 128 M (evicts LRU 0),
     0 M — true LRU gives exactly 2 hits / 5 misses; FIFO would differ. *)
  let seq = [ 0; 0; 128; 0; 256; 128; 0 ] in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun addr ->
      let lat = U.Mem_hier.instr_latency h addr in
      if lat = small_l1.U.Config.latency then incr hits else incr misses)
    seq;
  Alcotest.(check (pair int int)) "latency-derived L1I hit/miss" (2, 5)
    (!hits, !misses);
  Alcotest.(check (pair int int)) "l1i_stats agrees" (2, 5)
    (U.Mem_hier.l1i_stats h);
  (* same reconciliation on the data side *)
  let d_hits = ref 0 and d_misses = ref 0 in
  List.iter
    (fun addr ->
      let lat = U.Mem_hier.data_latency h addr in
      if lat = small_l1.U.Config.latency then incr d_hits else incr d_misses)
    [ 64; 64; 192; 64 ];
  Alcotest.(check (pair int int)) "latency-derived L1D hit/miss" (2, 2)
    (!d_hits, !d_misses);
  Alcotest.(check (pair int int)) "l1d_stats agrees" (!d_hits, !d_misses)
    (U.Mem_hier.l1d_stats h);
  (* warm-up fills stay uncounted *)
  U.Mem_hier.warm_instr h 512;
  Alcotest.(check (pair int int)) "warm_instr uncounted" (2, 5)
    (U.Mem_hier.l1i_stats h)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counters accumulate" `Quick test_counters_accumulate;
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "ring drops oldest" `Quick test_ring_drops_oldest;
      Alcotest.test_case "chrome roundtrip" `Quick test_chrome_roundtrip;
      Alcotest.test_case "disabled records nothing" `Quick
        test_disabled_records_nothing;
      Alcotest.test_case "cache counters reconcile" `Quick test_cache_reconcile;
    ] )

(* Sampled simulation: BBV profiling totals, k-means determinism (the
   property that makes the sampling spec a sound sweep-cache key),
   compiled-vs-interpreted fast-forward byte-identity, mid-run trace
   windows as exact slices of the full trace, exactness of the
   commit-to-commit measurement when every interval is simulated, and the
   headline accuracy bound — sampled IPC within 2% of full simulation. *)

module U = Braid_uarch
module W = Braid_workload
module Suite = Braid_sim.Suite
module Sample = Braid_sample

let ctx = lazy (Suite.create_ctx ())

let prepare bench = Suite.prepare (Lazy.force ctx) (W.Spec.find bench)

let cores =
  [
    ("in-order", U.Config.in_order_8wide);
    ("ooo", U.Config.ooo_8wide);
    ("braid", U.Config.braid_8wide);
  ]

let full_and_sampled ~spec p cfg =
  let ctx = Lazy.force ctx in
  (Suite.run ctx p cfg, Suite.sample ctx p ~spec cfg)

(* --- the acceptance bound: default spec, three benches, three cores --- *)

let test_error_bound bench (label, core) () =
  let p = prepare bench in
  let full, sampled = full_and_sampled ~spec:Sample.Spec.default p core in
  let err = Sample.Driver.error_vs ~full sampled in
  if err > 0.02 then
    Alcotest.failf "%s/%s: sampled IPC %.4f vs full %.4f — error %.2f%% > 2%%"
      bench label sampled.Sample.Driver.ipc full.U.Core.ipc (100.0 *. err);
  Alcotest.(check int)
    "extrapolated instruction count is the true dynamic count"
    full.U.Core.instructions
    sampled.Sample.Driver.result.U.Core.instructions

(* --- exhaustive representatives: the measurement itself is exact --- *)

(* With a cluster budget no smaller than the interval count, every
   interval is its own representative; commit-to-commit deltas telescope
   and the functional warm-up covers each window's full prefix at this
   scale, so the weighted extrapolation reconstructs the full run's cycle
   count exactly. Any drift here is a measurement bug, not a clustering
   approximation. *)
let test_exhaustive_exact bench (label, core) () =
  let spec = { Sample.Spec.default with Sample.Spec.max_k = max_int } in
  let p = prepare bench in
  let full, sampled = full_and_sampled ~spec p core in
  Alcotest.(check int)
    (Printf.sprintf "%s/%s cycles reconstructed exactly" bench label)
    full.U.Core.cycles sampled.Sample.Driver.result.U.Core.cycles;
  List.iter
    (fun (r : Sample.Driver.rep) ->
      Alcotest.(check bool) "weights positive" true (r.Sample.Driver.weight > 0.0))
    sampled.Sample.Driver.reps;
  let wsum =
    List.fold_left
      (fun a (r : Sample.Driver.rep) -> a +. r.Sample.Driver.weight)
      0.0 sampled.Sample.Driver.reps
  in
  Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 wsum

(* --- BBV profile totals --- *)

let test_bbv_totals () =
  let p = prepare "gzip" in
  let program = p.Suite.conventional.Braid_core.Extalloc.program in
  let spec = Sample.Spec.default in
  let profile =
    Sample.Bbv.profile ~init_mem:p.Suite.init_mem
      ~max_steps:(50 * p.Suite.scale) ~spec
      (Emulator.Compiled.compile program)
  in
  let out =
    Emulator.run ~trace:false ~max_steps:(50 * p.Suite.scale)
      ~init_mem:p.Suite.init_mem program
  in
  Alcotest.(check int) "total = interpreted dynamic count"
    out.Emulator.dynamic_count profile.Sample.Bbv.total;
  let sum =
    Array.fold_left
      (fun a (iv : Sample.Bbv.interval) -> a + iv.Sample.Bbv.length)
      0 profile.Sample.Bbv.intervals
  in
  Alcotest.(check int) "interval lengths sum to total" profile.Sample.Bbv.total
    sum;
  Array.iteri
    (fun i (iv : Sample.Bbv.interval) ->
      if i < Array.length profile.Sample.Bbv.intervals - 1 then
        Alcotest.(check int) "only the last interval may fall short"
          spec.Sample.Spec.interval iv.Sample.Bbv.length)
    profile.Sample.Bbv.intervals

(* --- k-means determinism --- *)

let test_kmeans_deterministic () =
  let p = prepare "swim" in
  let program = p.Suite.conventional.Braid_core.Extalloc.program in
  let profile =
    Sample.Bbv.profile ~init_mem:p.Suite.init_mem
      ~max_steps:(50 * p.Suite.scale) ~spec:Sample.Spec.default
      (Emulator.Compiled.compile program)
  in
  let points =
    Array.map
      (fun (iv : Sample.Bbv.interval) -> iv.Sample.Bbv.vector)
      profile.Sample.Bbv.intervals
  in
  let a = Sample.Kmeans.cluster ~seed:1 ~k:4 points in
  let b = Sample.Kmeans.cluster ~seed:1 ~k:4 points in
  Alcotest.(check bool) "equal seeds, equal assignments" true
    (a.Sample.Kmeans.assign = b.Sample.Kmeans.assign);
  Alcotest.(check bool) "equal seeds, equal centroids" true
    (a.Sample.Kmeans.centroids = b.Sample.Kmeans.centroids);
  Alcotest.(check bool) "equal seeds, equal representatives" true
    (Sample.Kmeans.representatives a points
    = Sample.Kmeans.representatives b points)

(* Whole-driver determinism across contexts: a cold context, a second cold
   context and a warm (memoised) repeat must pick identical intervals and
   produce identical extrapolated results. *)
let rep_key (r : Sample.Driver.rep) =
  (r.Sample.Driver.interval_index, r.Sample.Driver.start,
   r.Sample.Driver.length, r.Sample.Driver.weight)

let test_driver_deterministic () =
  let spec = Sample.Spec.default in
  let run_in ctx =
    let p = Suite.prepare ctx (W.Spec.find "art") in
    Suite.sample ctx p ~spec U.Config.in_order_8wide
  in
  let cold1 = run_in (Suite.create_ctx ()) in
  let warm_ctx = Suite.create_ctx () in
  let cold2 = run_in warm_ctx in
  let warm = run_in warm_ctx in
  let reps t = List.map rep_key t.Sample.Driver.reps in
  Alcotest.(check bool) "cold = cold" true (reps cold1 = reps cold2);
  Alcotest.(check bool) "cold = warm" true (reps cold1 = reps warm);
  Alcotest.(check int) "identical cycles" cold1.Sample.Driver.result.U.Core.cycles
    cold2.Sample.Driver.result.U.Core.cycles

(* A sampled sweep is deterministic across --jobs: the clustering runs
   inside each (memoised) job, so parallel scheduling must not change
   which intervals are simulated or what they measure. *)
let test_sampled_sweep_jobs_invariant () =
  let spec = { Sample.Spec.default with Sample.Spec.max_k = 4 } in
  let points =
    match
      Braid_dse.Grid.expand ~base:U.Config.braid_8wide
        ~mode:Braid_dse.Grid.Cartesian
        [ Result.get_ok (Braid_dse.Axis.of_spec "ext_regs=8,16") ]
    with
    | Ok pts -> pts
    | Error m -> Alcotest.fail m
  in
  let benches = [ W.Spec.find "gzip"; W.Spec.find "mcf" ] in
  let sweep jobs =
    let outcome =
      Braid_dse.Sweep.run
        ~ctx:(Suite.create_ctx ~sample:spec ())
        ~jobs ~seed:1 ~scale:6000 ~benches points
    in
    List.map
      (fun (pr : Braid_dse.Sweep.point_result) ->
        List.map
          (fun (r : Braid_dse.Sweep.run) ->
            (r.Braid_dse.Sweep.bench, r.Braid_dse.Sweep.cycles,
             r.Braid_dse.Sweep.instructions))
          pr.Braid_dse.Sweep.runs)
      outcome.Braid_dse.Sweep.results
  in
  Alcotest.(check bool) "jobs=1 and jobs=2 agree" true (sweep 1 = sweep 2)

(* --- compiled fast-forward byte-identity --- *)

(* The fast path underpinning everything above: the compiled emulator
   must agree with the reference interpreter in every architectural
   observable, on both binaries of every benchmark in the suite. *)
let test_compiled_identity () =
  List.iter
    (fun (profile : W.Spec.profile) ->
      let p = Suite.prepare (Lazy.force ctx) ~scale:1200 profile in
      List.iter
        (fun (label, program) ->
          let max_steps = 50 * p.Suite.scale in
          let i =
            Emulator.reference ~max_steps ~init_mem:p.Suite.init_mem program
          in
          let c =
            Emulator.run ~trace:false ~max_steps ~init_mem:p.Suite.init_mem
              program
          in
          let name fmt =
            Printf.sprintf "%s %s %s" profile.W.Spec.name label fmt
          in
          Alcotest.(check int) (name "dynamic count")
            i.Emulator.dynamic_count c.Emulator.dynamic_count;
          Alcotest.(check int) (name "store count") i.Emulator.store_count
            c.Emulator.store_count;
          Alcotest.(check bool) (name "stop reason") true
            (i.Emulator.stop = c.Emulator.stop);
          Alcotest.(check int64) (name "memory fingerprint")
            (Emulator.memory_fingerprint i.Emulator.state)
            (Emulator.memory_fingerprint c.Emulator.state);
          for n = 0 to Reg.num_ext_per_class - 1 do
            List.iter
              (fun r ->
                Alcotest.(check int64) (name (Reg.to_string r))
                  (Emulator.read_ext i.Emulator.state r)
                  (Emulator.read_ext c.Emulator.state r))
              [ Reg.ext Reg.Cint n; Reg.ext Reg.Cfp n ]
          done)
        [
          ("conv", p.Suite.conventional.Braid_core.Extalloc.program);
          ("braid", p.Suite.braid.Braid_core.Transform.program);
        ])
    W.Spec.all

(* --- trace_window: a mid-run window is a slice of the full trace --- *)

(* Events [k, k+w) of a full trace as a window cut at [k] must read: uids
   restart at 0, dependences on producers before [k] are dropped and the
   rest rebased, and a window opening mid-braid promotes its first event
   to a braid start. *)
let expected_window (full : Trace.event array) ~k ~w =
  Array.init w (fun i ->
      let e = full.(k + i) in
      let deps =
        Array.of_list
          (List.filter_map
             (fun (u, via) -> if u < k then None else Some (u - k, via))
             (Array.to_list e.Trace.deps))
      in
      let braid_start =
        e.Trace.braid_start || (i = 0 && e.Trace.braid_id >= 0)
      in
      { e with Trace.uid = i; deps; braid_start })

(* The sampling driver and its representative replays time windows cut
   out of a fast-forwarded run, so a window — first taken, and again after
   rewinding to a snapshot — must carry exactly the events a full trace
   would, on the braid binary of every benchmark. *)
let test_trace_window () =
  List.iter
    (fun (profile : W.Spec.profile) ->
      let p = Suite.prepare (Lazy.force ctx) ~scale:1200 profile in
      let program = p.Suite.braid.Braid_core.Transform.program in
      let init_mem = p.Suite.init_mem in
      let full =
        Emulator.run ~trace:true ~max_steps:(50 * p.Suite.scale) ~init_mem
          program
      in
      let name fmt = Printf.sprintf "%s %s" profile.W.Spec.name fmt in
      Alcotest.(check bool) (name "full run halts") true
        (full.Emulator.stop = Trace.Halted);
      let events = (Option.get full.Emulator.trace).Trace.events in
      let n = Array.length events in
      let k = n / 3 and w = n / 3 in
      let run =
        Emulator.Compiled.start ~init_mem (Emulator.Compiled.compile program)
      in
      Alcotest.(check int) (name "advance to k") k
        (Emulator.Compiled.advance run ~fuel:k);
      let snap = Emulator.Compiled.snapshot run in
      let window label ~max_steps ~len stop =
        let t = Emulator.Compiled.trace_window run ~max_steps in
        Alcotest.(check int) (name (label ^ ": length")) len
          (Array.length t.Trace.events);
        Alcotest.(check bool) (name (label ^ ": events k .. k+len-1")) true
          (t.Trace.events = expected_window events ~k ~w:len);
        Alcotest.(check bool) (name (label ^ ": stop")) true (t.Trace.stop = stop);
        Alcotest.(check int) (name (label ^ ": steps")) (k + len)
          (Emulator.Compiled.steps run)
      in
      window "window" ~max_steps:w ~len:w Trace.Steps_exhausted;
      Emulator.Compiled.restore run snap;
      window "window after restore" ~max_steps:w ~len:w Trace.Steps_exhausted;
      Emulator.Compiled.restore run snap;
      window "window past the end" ~max_steps:n ~len:(n - k) Trace.Halted)
    W.Spec.all

(* --- measure_from validation --- *)

let test_measure_from_validation () =
  let p = prepare "mcf" in
  let trace = p.Suite.conv_trace () in
  let n = Array.length trace.Trace.events in
  let run mf = ignore (U.Core.run ~measure_from:mf U.Config.ooo_8wide trace) in
  Alcotest.check_raises "negative"
    (Invalid_argument
       (Printf.sprintf "Core.create: measure_from %d outside trace [0, %d)"
          (-1) n))
    (fun () -> run (-1));
  Alcotest.check_raises "past the end"
    (Invalid_argument
       (Printf.sprintf "Core.create: measure_from %d outside trace [0, %d)" n n))
    (fun () -> run n);
  (* a valid boundary reports exactly the suffix length *)
  let r = U.Core.result (U.Core.run ~measure_from:(n / 2) U.Config.ooo_8wide trace) in
  Alcotest.(check int) "suffix instruction count" (n - (n / 2))
    r.U.Core.instructions;
  let full = U.Core.result (U.Core.run U.Config.ooo_8wide trace) in
  Alcotest.(check bool) "suffix cycles below full" true
    (r.U.Core.cycles < full.U.Core.cycles)

let accuracy_cases =
  List.concat_map
    (fun bench -> List.map (fun c -> (bench, c)) cores)
    [ "gzip"; "swim"; "mcf" ]

let suite =
  ( "sample",
    [
      Alcotest.test_case "bbv totals" `Quick test_bbv_totals;
      Alcotest.test_case "kmeans deterministic" `Quick test_kmeans_deterministic;
      Alcotest.test_case "driver deterministic across ctxs" `Quick
        test_driver_deterministic;
      Alcotest.test_case "sampled sweep jobs-invariant" `Slow
        test_sampled_sweep_jobs_invariant;
      Alcotest.test_case "compiled emulator byte-identity" `Slow
        test_compiled_identity;
      Alcotest.test_case "trace_window slices the full trace" `Slow
        test_trace_window;
      Alcotest.test_case "measure_from validation" `Quick
        test_measure_from_validation;
    ]
    @ List.map
        (fun (bench, ((label, _) as core)) ->
          Alcotest.test_case
            (Printf.sprintf "error bound %s/%s" bench label)
            `Slow (test_error_bound bench core))
        accuracy_cases
    @ List.map
        (fun (bench, ((label, _) as core)) ->
          Alcotest.test_case
            (Printf.sprintf "exhaustive exact %s/%s" bench label)
            `Slow (test_exhaustive_exact bench core))
        [ ("art", List.nth cores 0); ("gzip", List.nth cores 2) ] )

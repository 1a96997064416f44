(* Sampled simulation: BBV profiling totals and per-block counts,
   k-means determinism (the property that makes the sampling spec a
   sound sweep-cache key), compiled-vs-interpreted fast-forward
   byte-identity, mid-run trace windows as exact slices of the full
   trace, the warm-up walk as the exact content of a trace window and
   its allocation bound, exactness of the commit-to-commit measurement
   when every interval is simulated, and the headline accuracy bound —
   sampled IPC within 2% of full simulation. *)

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

(* The clustering [nearest] replaced, kept as the reference: every
   centroid's full distance, returned with its index. *)
module Ref_kmeans = struct
  let sq_dist a b =
    let d = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      let x = a.(i) -. b.(i) in
      d := !d +. (x *. x)
    done;
    !d

  let nearest centroids k p =
    let best = ref 0 and bestd = ref (sq_dist p centroids.(0)) in
    for c = 1 to k - 1 do
      let d = sq_dist p centroids.(c) in
      if d < !bestd then begin
        best := c;
        bestd := d
      end
    done;
    (!best, !bestd)

  let seed_centroids rng ~k points =
    let n = Array.length points in
    let centroids = Array.make k points.(0) in
    let chosen = Array.make n false in
    let first = Prng.int rng n in
    centroids.(0) <- points.(first);
    chosen.(first) <- true;
    let d2 = Array.map (fun p -> sq_dist p centroids.(0)) points in
    for c = 1 to k - 1 do
      let total = Array.fold_left ( +. ) 0.0 d2 in
      let idx =
        if total > 0.0 then begin
          let r = Prng.float rng total in
          let acc = ref 0.0 and pick = ref (-1) in
          Array.iteri
            (fun i d ->
              if !pick < 0 then begin
                acc := !acc +. d;
                if !acc > r then pick := i
              end)
            d2;
          if !pick < 0 then n - 1 else !pick
        end
        else begin
          let pick = ref 0 in
          (try
             for i = 0 to n - 1 do
               if not chosen.(i) then begin
                 pick := i;
                 raise Exit
               end
             done
           with Exit -> ());
          !pick
        end
      in
      centroids.(c) <- points.(idx);
      chosen.(idx) <- true;
      Array.iteri
        (fun i p ->
          let d = sq_dist p centroids.(c) in
          if d < d2.(i) then d2.(i) <- d)
        points
    done;
    centroids

  let cluster ~seed ~k points =
    let n = Array.length points in
    let k = Int.max 1 (Int.min k n) in
    let dim = Array.length points.(0) in
    let rng = Prng.create (Int64.of_int seed) in
    let centroids = seed_centroids rng ~k points in
    let assign = Array.make n (-1) in
    let iter = ref 0 and changed = ref true in
    while !changed && !iter < 100 do
      changed := false;
      incr iter;
      Array.iteri
        (fun i p ->
          let c, _ = nearest centroids k p in
          if c <> assign.(i) then begin
            assign.(i) <- c;
            changed := true
          end)
        points;
      if !changed then begin
        let sums = Array.init k (fun _ -> Array.make dim 0.0) in
        let counts = Array.make k 0 in
        Array.iteri
          (fun i p ->
            let c = assign.(i) in
            counts.(c) <- counts.(c) + 1;
            for j = 0 to dim - 1 do
              sums.(c).(j) <- sums.(c).(j) +. p.(j)
            done)
          points;
        Array.iteri
          (fun c count ->
            if count > 0 then begin
              let s = sums.(c) in
              for j = 0 to dim - 1 do
                s.(j) <- s.(j) /. float_of_int count
              done;
              centroids.(c) <- s
            end
            else begin
              let far = ref 0 and fard = ref neg_infinity in
              Array.iteri
                (fun i p ->
                  let d = sq_dist p centroids.(assign.(i)) in
                  if d > !fard then begin
                    far := i;
                    fard := d
                  end)
                points;
              centroids.(c) <- Array.copy points.(!far);
              assign.(!far) <- c
            end)
          counts
      end
    done;
    (k, assign, centroids)
end

(* [Kmeans.cluster] equals the reference bit for bit: the same
   assignment and the same centroid bits, on seeded random points drawn
   from a few dozen values (so duplicates and distance ties are common),
   on clustered points, and with k at and above the point count. *)
let test_kmeans_matches_reference () =
  let rng = Prng.create 0x6b6dL in
  let bits c = Array.map (Array.map Int64.bits_of_float) c in
  let check what ~seed ~k points =
    let got = Sample.Kmeans.cluster ~seed ~k points in
    let k', assign, centroids = Ref_kmeans.cluster ~seed ~k points in
    Alcotest.(check int) (what ^ ": k") k' got.Sample.Kmeans.k;
    Alcotest.(check (array int)) (what ^ ": assignment") assign got.Sample.Kmeans.assign;
    if bits centroids <> bits got.Sample.Kmeans.centroids then
      Alcotest.failf "%s: centroids differ from the reference" what
  in
  for case = 1 to 60 do
    let n = 1 + Prng.int rng 80 and dim = 1 + Prng.int rng 12 in
    let levels = 1 + Prng.int rng 4 in
    let grid () = float_of_int (Prng.int rng levels) /. float_of_int levels in
    let centres = Array.init 5 (fun _ -> Array.init dim (fun _ -> Prng.float rng 1.0)) in
    let points =
      Array.init n (fun _ ->
          if case mod 2 = 0 then Array.init dim (fun _ -> grid ())
          else
            Array.map
              (fun x -> x +. Prng.float rng 0.05)
              centres.(Prng.int rng (Array.length centres)))
    in
    List.iter
      (fun k ->
        check (Printf.sprintf "case %d (n %d, dim %d, k %d)" case n dim k)
          ~seed:(Prng.int rng 1000) ~k points)
      [ 1 + Prng.int rng 8; n; n + 1 + Prng.int rng 4 ]
  done

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
      let full = Option.get full.Emulator.trace in
      let events = Array.init (Trace.length full) (Trace.event full) in
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
        Alcotest.(check int) (name (label ^ ": length")) len (Trace.length t);
        Alcotest.(check bool) (name (label ^ ": events k .. k+len-1")) true
          (Array.init len (Trace.event t) = expected_window events ~k ~w:len);
        Alcotest.(check bool) (name (label ^ ": stop")) true (Trace.stop t = stop);
        Alcotest.(check int) (name (label ^ ": steps")) (k + len)
          (Emulator.Compiled.steps run)
      in
      window "window" ~max_steps:w ~len:w Trace.Steps_exhausted;
      Emulator.Compiled.restore run snap;
      window "window after restore" ~max_steps:w ~len:w Trace.Steps_exhausted;
      Emulator.Compiled.restore run snap;
      window "window past the end" ~max_steps:n ~len:(n - k) Trace.Halted)
    W.Spec.all

(* --- the warm-up walk: what a trace window would have replayed --- *)

let check_warm_equal name (a : Trace.Warm.t) (b : Trace.Warm.t) =
  Alcotest.(check int) (name ^ ": length") (Trace.Warm.length b)
    (Trace.Warm.length a);
  let pc w u = (Trace.Warm.statics w).(Trace.Warm.sidx w u).Trace.pc in
  for u = 0 to Trace.Warm.length a - 1 do
    if pc a u <> pc b u || Trace.Warm.value a u <> Trace.Warm.value b u then
      Alcotest.failf "%s: entry %d is (pc %d, %d), expected (pc %d, %d)" name
        u (pc a u) (Trace.Warm.value a u) (pc b u) (Trace.Warm.value b u)
  done

(* Uid [u + 1] of window [t] continues [u]'s segment, the stretch the
   walk runs in one chain call: it is the next instruction of [u]'s
   straight-line run, and plain (the walk reads no register for it). *)
let continues_segment t u =
  let a = Trace.static t u and b = Trace.static t (u + 1) in
  b.Trace.block_id = a.Trace.block_id
  && b.Trace.offset = a.Trace.offset + 1
  && (match a.Trace.instr.Instr.op with
     | Op.Branch _ | Op.Jump _ | Op.Halt -> false
     | _ -> true)
  &&
  match b.Trace.instr.Instr.op with
  | Op.Load _ | Op.Store _ | Op.Branch _ | Op.Fbin (Op.Fdiv, _, _, _) -> false
  | _ -> true

(* The sampler warms each representative from [Compiled.warm_window];
   an outside replay that still holds a trace window warms through
   [Core.run ~prewarm]. Over the same span, on both binaries of every
   benchmark, the walk's buffer must equal the window's conversion entry
   for entry, leave the run at the same position, and warm a core into
   the same result and counters: mid-program, on a span that runs past
   the halt, on one whose end cuts a segment, and on one that starts
   inside a segment. *)
let test_warm_walk () =
  List.iter
    (fun (profile : W.Spec.profile) ->
      let bench = profile.W.Spec.name in
      let p = Suite.prepare (Lazy.force ctx) ~scale:100_000 profile in
      List.iter
        (fun (label, program, cfg) ->
          let code = Emulator.Compiled.compile program in
          let start () = Emulator.Compiled.start ~init_mem:p.Suite.init_mem code in
          let total = Emulator.Compiled.advance (start ()) ~fuel:max_int in
          (* the first uid [u] at or after [from] of a window opened at
             [at] whose successor continues its segment *)
          let segment_after at ~from =
            let run = start () in
            ignore (Emulator.Compiled.advance run ~fuel:at : int);
            let t = Emulator.Compiled.trace_window run ~max_steps:(from + 1_000) in
            let rec find u =
              if u + 1 >= Trace.length t then
                Alcotest.failf "%s %s: no segment longer than 1 from %d" bench label
                  (at + from)
              else if continues_segment t u then u
              else find (u + 1)
            in
            find from
          in
          (* a walk of [cut] steps from [total / 4] stops inside a
             segment, and one from [inside] starts inside one *)
          let cut = 1 + segment_after (total / 4) ~from:(Int.min 20_000 (total / 4)) in
          let inside = (total / 3) + 1 + segment_after (total / 3) ~from:0 in
          let w = Trace.Warm.create ~capacity:65_536 in
          List.iter
            (fun (span, k, steps) ->
              let span = Printf.sprintf "%s %s %s" bench label span in
              let run = start () in
              ignore (Emulator.Compiled.advance run ~fuel:k : int);
              let snap = Emulator.Compiled.snapshot run in
              Emulator.Compiled.warm_window run w ~max_steps:steps;
              let walked = Emulator.Compiled.steps run in
              let halted = Emulator.Compiled.halted run in
              let detail = Emulator.Compiled.trace_window run ~max_steps:4_000 in
              Emulator.Compiled.restore run snap;
              let window = Emulator.Compiled.trace_window run ~max_steps:steps in
              Alcotest.(check int) (span ^ ": position") walked
                (Emulator.Compiled.steps run);
              Alcotest.(check bool) (span ^ ": halted") halted
                (Emulator.Compiled.halted run);
              check_warm_equal span w (Trace.Warm.of_trace window);
              if Trace.length detail > 0 then begin
                let core ?warm ?prewarm () =
                  U.Core.run ~warm_data:p.Suite.warm_data ?warm ?prewarm
                    ~measure_from:(Trace.length detail / 2) cfg detail
                in
                let a = core ~warm:w () and b = core ~prewarm:window () in
                Alcotest.(check bool) (span ^ ": result") true
                  (U.Core.result a = U.Core.result b);
                Alcotest.(check bool) (span ^ ": counters") true
                  (U.Core.counters a = U.Core.counters b)
              end)
            [
              ("mid-program", total / 8, Int.min 65_536 (total / 2));
              ("past the halt", total - 1_000, 65_536);
              ("cutting a segment", total / 4, cut);
              ("from inside a segment", inside, 20_000);
            ])
        [
          ( "conv",
            p.Suite.conventional.Braid_core.Extalloc.program,
            U.Config.ooo_8wide );
          ( "braid",
            p.Suite.braid.Braid_core.Transform.program,
            U.Config.braid_8wide );
        ])
    W.Spec.all

(* Filling a buffer allocated once allocates nothing per instruction:
   the sampler walks 65,536 instructions before every representative.
   A walk longer than the buffer, a core given the same warm-up both as
   a buffer and as a trace, and a core given a buffer walked over other
   compiled code than its trace's (another program's, or a second
   compile of its own) are refused. *)
let test_warm_walk_allocation () =
  let p = Suite.prepare (Lazy.force ctx) ~scale:100_000 (W.Spec.find "gzip") in
  let conv = p.Suite.conventional.Braid_core.Extalloc.program in
  let code = Emulator.Compiled.compile conv in
  let run = Emulator.Compiled.start ~init_mem:p.Suite.init_mem code in
  let w = Trace.Warm.create ~capacity:65_536 in
  let before = Gc.minor_words () in
  Emulator.Compiled.warm_window run w ~max_steps:65_536;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "walked" 65_536 (Trace.Warm.length w);
  if words >= 2_000.0 then
    Alcotest.failf "walking 65,536 instructions allocated %.0f words" words;
  Alcotest.check_raises "a walk longer than the buffer"
    (Invalid_argument "Compiled.warm_window: 65537 steps into a buffer of 65536")
    (fun () -> Emulator.Compiled.warm_window run w ~max_steps:65_537);
  let window = Emulator.Compiled.trace_window run ~max_steps:100 in
  Alcotest.check_raises "one warm-up, given twice"
    (Invalid_argument "Core.create: both warm and prewarm given") (fun () ->
      ignore (U.Core.create ~warm:w ~prewarm:window U.Config.ooo_8wide window));
  ignore (U.Core.create ~warm:w U.Config.ooo_8wide window : U.Core.t);
  List.iter
    (fun (what, program) ->
      let other =
        Emulator.Compiled.start ~init_mem:p.Suite.init_mem
          (Emulator.Compiled.compile program)
      in
      Emulator.Compiled.warm_window other w ~max_steps:1_000;
      Alcotest.check_raises what
        (Invalid_argument
           "Core.create: a warm-up buffer walked over other code than the trace's")
        (fun () -> ignore (U.Core.create ~warm:w U.Config.ooo_8wide window)))
    [
      ("a buffer walked over another program",
       p.Suite.braid.Braid_core.Transform.program);
      ("a buffer walked over a second compile", conv);
    ]

(* --- BBV counts: one chain call per straight-line run --- *)

(* [advance_bbv] adds each run's executed count to its block at once;
   every interval's counts must equal the per-block counts of the same
   uids in a full trace. The interval length is prime, so intervals end
   inside runs. *)
let test_bbv_counts () =
  List.iter
    (fun (profile : W.Spec.profile) ->
      let p = Suite.prepare (Lazy.force ctx) ~scale:1200 profile in
      List.iter
        (fun (label, program) ->
          let name = Printf.sprintf "%s %s" profile.W.Spec.name label in
          let init_mem = p.Suite.init_mem in
          let max_steps = 50 * p.Suite.scale in
          let full =
            Option.get
              (Emulator.run ~trace:true ~max_steps ~init_mem program)
                .Emulator.trace
          in
          let code = Emulator.Compiled.compile program in
          let nb = Emulator.Compiled.num_blocks code in
          let run = Emulator.Compiled.start ~init_mem code in
          let counts = Array.make nb 0 and expected = Array.make nb 0 in
          let pos = ref 0 and continue = ref true in
          while !continue do
            Array.fill counts 0 nb 0;
            Array.fill expected 0 nb 0;
            let ran =
              Emulator.Compiled.advance_bbv run
                ~fuel:(Int.min 997 (max_steps - !pos))
                ~counts
            in
            for u = !pos to !pos + ran - 1 do
              let b = (Trace.static full u).Trace.block_id in
              expected.(b) <- expected.(b) + 1
            done;
            if counts <> expected then
              Alcotest.failf "%s: interval at %d counts differ" name !pos;
            pos := !pos + ran;
            continue := ran > 0 && not (Emulator.Compiled.halted run)
          done;
          Alcotest.(check int) (name ^ ": total") (Trace.length full) !pos)
        [
          ("conv", p.Suite.conventional.Braid_core.Extalloc.program);
          ("braid", p.Suite.braid.Braid_core.Transform.program);
        ])
    W.Spec.all

(* --- measure_from validation --- *)

let test_measure_from_validation () =
  let p = prepare "mcf" in
  let trace = p.Suite.conv_trace () in
  let n = Trace.length trace in
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
    (r.U.Core.cycles < full.U.Core.cycles);
  (* the boundary at uid 0 subtracts a snapshot of nothing: on every kind
     the window is the plain run, field for field *)
  List.iter
    (fun kind ->
      let cfg = U.Config.preset_of_kind kind in
      let trace = Suite.trace p cfg in
      let run ?measure_from () =
        U.Core.result
          (U.Core.run ~warm_data:p.Suite.warm_data ?measure_from cfg trace)
      in
      let plain = run () and zero = run ~measure_from:0 () in
      let name = U.Config.Core_kind.to_string kind in
      Alcotest.(check (list int))
        (name ^ ": counts")
        (Array.to_list (U.Core.counts plain))
        (Array.to_list (U.Core.counts zero));
      Alcotest.(check bool) (name ^ ": every field") true (plain = zero);
      Alcotest.(check bool)
        (name ^ ": with_counts inverts counts")
        true
        (U.Core.with_counts plain (U.Core.counts plain) = plain))
    U.Config.Core_kind.all

let accuracy_cases =
  List.concat_map
    (fun bench -> List.map (fun c -> (bench, c)) cores)
    [ "gzip"; "swim"; "mcf" ]

let suite =
  ( "sample",
    [
      Alcotest.test_case "bbv totals" `Quick test_bbv_totals;
      Alcotest.test_case "kmeans deterministic" `Quick test_kmeans_deterministic;
      Alcotest.test_case "kmeans equals the reference" `Quick test_kmeans_matches_reference;
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
      Alcotest.test_case "warm walk equals the trace adapter" `Slow
        test_warm_walk;
      Alcotest.test_case "warm walk allocation bound" `Quick
        test_warm_walk_allocation;
      Alcotest.test_case "bbv run counts match the trace" `Slow
        test_bbv_counts;
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

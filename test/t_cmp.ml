(* CMP (multicore rate-mode) tests: the Mem_hier passthrough proof — a
   1-core CMP over the solo L2 geometry reproduces every golden
   (bench × core) cycle count bit-for-bit — plus pinned golden CMP
   numbers for 2- and 4-core mixes, the 2-core differential fuzz, and
   the typed Config/axis/cache plumbing the cores axis rides on. *)

module Suite = Braid_sim.Suite
module U = Braid_uarch
module Config = Braid_uarch.Config
module Cmp = Braid_cmp.Cmp
module Cmp_bench = Braid_cmp.Cmp_bench

let ctx = lazy (Suite.create_ctx ())

let kind_of_golden = function
  | T_golden.In_order -> Config.In_order
  | T_golden.Ooo -> Config.Ooo
  | T_golden.Braid -> Config.Braid_exec
  | T_golden.Cgooo -> Config.Cgooo

(* --- Core_kind: the typed core-name vocabulary --- *)

let test_core_kind_roundtrip () =
  List.iter
    (fun k ->
      let s = Config.Core_kind.to_string k in
      match Config.Core_kind.of_string s with
      | Ok k' -> Alcotest.(check bool) ("round-trip " ^ s) true (k = k')
      | Error m -> Alcotest.fail m)
    Config.Core_kind.all;
  (match Config.Core_kind.of_string "  BRAID " with
  | Ok Config.Braid_exec -> ()
  | _ -> Alcotest.fail "case-insensitive trim");
  match Config.Core_kind.of_string "hyperscalar" with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error m ->
      (* one shared typed error listing every valid name *)
      List.iter
        (fun name ->
          Alcotest.(check bool)
            ("error lists " ^ name)
            true
            (Astring_contains.contains m name))
        Config.Core_kind.names

(* --- Config.Cmp: the typed cmp section --- *)

let test_cmp_config () =
  let solo_l2 = Config.default_memory.Config.l2 in
  let l2_4 = Config.Cmp.default_l2 4 in
  Alcotest.(check int)
    "default_l2 scales capacity by core count"
    (4 * solo_l2.Config.size_bytes)
    l2_4.Config.size_bytes;
  Alcotest.(check int) "line size unchanged" solo_l2.Config.line_bytes
    l2_4.Config.line_bytes;
  let cmp = Config.Cmp.make ~cores:3 ~workloads:[ "gzip"; "mcf" ] () in
  Alcotest.(check int) "cores" 3 cmp.Config.Cmp.cores;
  Alcotest.(check string) "round-robin 0" "gzip" (Config.Cmp.workload_of cmp 0);
  Alcotest.(check string) "round-robin 1" "mcf" (Config.Cmp.workload_of cmp 1);
  Alcotest.(check string) "round-robin 2" "gzip" (Config.Cmp.workload_of cmp 2);
  (match Config.Cmp.validate cmp with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match Config.Cmp.validate { cmp with Config.Cmp.cores = 0 } with
  | Ok _ -> Alcotest.fail "0 cores accepted"
  | Error _ -> ());
  (match Config.Cmp.validate { cmp with Config.Cmp.cores = 65 } with
  | Ok _ -> Alcotest.fail "65 cores accepted (sharer masks are one word)"
  | Error _ -> ());
  match Config.Cmp.validate { cmp with Config.Cmp.workloads = [] } with
  | Ok _ -> Alcotest.fail "empty workload list accepted"
  | Error _ -> ()

(* --- solo equivalence: the passthrough proof ---

   A 1-core CMP over the *solo* L2 geometry (not the scaled default)
   performs the exact same cache-access sequence as the private
   hierarchy, so it must land on every golden cycle count exactly, and
   its internally-computed solo baseline must agree (slowdown 1.0). *)

let test_solo_equivalence () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun (bench, core, instrs, cycles) ->
      let kind = kind_of_golden core in
      let cfg = Config.preset_of_kind kind in
      let cmp =
        Config.Cmp.make
          ~l2:(Some cfg.Config.mem.Config.l2)
          ~cores:1 ~workloads:[ bench ] ()
      in
      let r = Cmp_bench.run ctx ~seed:1 ~scale:1200 ~cfg cmp in
      let label =
        Printf.sprintf "%s/%s" bench (Config.Core_kind.to_string kind)
      in
      let c0 = List.hd r.Cmp.cores in
      Alcotest.(check int)
        (label ^ " instructions")
        instrs c0.Cmp.result.U.Core.instructions;
      Alcotest.(check int) (label ^ " cycles") cycles c0.Cmp.result.U.Core.cycles;
      Alcotest.(check (float 0.0)) (label ^ " slowdown") 1.0 c0.Cmp.slowdown;
      Alcotest.(check (float 0.0))
        (label ^ " weighted speedup")
        1.0 r.Cmp.weighted_speedup;
      Alcotest.(check bool)
        (label ^ " no coherence traffic")
        true
        (r.Cmp.coherence.U.Mem_hier.invalidations = 0
        && r.Cmp.coherence.U.Mem_hier.downgrades = 0);
      Alcotest.(check (list string)) (label ^ " legal directory") [] r.Cmp.violations)
    T_golden.golden

(* --- golden CMP numbers: 2- and 4-core mixes, scale 1200, seed 1,
   braid cores over the default (capacity-scaled) shared L2 ---

   (bench, cycles, instructions) per core in core order, then global
   cycles, shared-L2 (hits, misses) and coherence
   (invalidations, downgrades, writebacks, remote_hits) — harvested from
   `braidsim cmp <mix> --scale 1200`, which exercises the identical
   Cmp_bench path. *)

let golden_cmp =
  [
    ( [ "gzip"; "crafty" ],
      2,
      [ ("gzip", 2605, 3309); ("crafty", 2694, 4254) ],
      2694,
      (177, 1),
      (47, 50, 53, 73) );
    ( [ "bzip2"; "mcf" ],
      2,
      [ ("bzip2", 2483, 3418); ("mcf", 1001, 975) ],
      2483,
      (224, 2),
      (2, 1, 1, 4) );
    ( [ "swim"; "art" ],
      2,
      [ ("swim", 1998, 8984); ("art", 3924, 11739) ],
      3924,
      (752, 67),
      (0, 0, 0, 5) );
    ( [ "gzip"; "crafty"; "bzip2"; "mcf" ],
      4,
      [
        ("gzip", 3097, 3309);
        ("crafty", 2736, 4254);
        ("bzip2", 3038, 3418);
        ("mcf", 1001, 975);
      ],
      3097,
      (493, 2),
      (176, 153, 159, 220) );
    ( [ "equake" ],
      4,
      [
        ("equake", 1253, 3740);
        ("equake", 1253, 3740);
        ("equake", 1253, 3740);
        ("equake", 1253, 3740);
      ],
      1253,
      (1009, 19),
      (501, 0, 501, 381) );
  ]

let check_golden_cmp (benches, cores, per_core, cycles, l2, coh) () =
  let ctx = Lazy.force ctx in
  let cfg = Config.braid_8wide in
  let cmp = Config.Cmp.make ~cores ~workloads:benches () in
  let r = Cmp_bench.run ctx ~seed:1 ~scale:1200 ~cfg cmp in
  let label = String.concat "+" benches in
  List.iter2
    (fun expected got ->
      let bench, ecycles, einstrs = expected in
      Alcotest.(check string)
        (Printf.sprintf "%s core%d bench" label got.Cmp.core_id)
        bench got.Cmp.bench;
      Alcotest.(check int)
        (Printf.sprintf "%s core%d cycles" label got.Cmp.core_id)
        ecycles got.Cmp.result.U.Core.cycles;
      Alcotest.(check int)
        (Printf.sprintf "%s core%d instructions" label got.Cmp.core_id)
        einstrs got.Cmp.result.U.Core.instructions)
    per_core r.Cmp.cores;
  Alcotest.(check int) (label ^ " global cycles") cycles r.Cmp.cycles;
  let l2_hits, l2_misses = l2 in
  Alcotest.(check int) (label ^ " l2 hits") l2_hits r.Cmp.l2_hits;
  Alcotest.(check int) (label ^ " l2 misses") l2_misses r.Cmp.l2_misses;
  let inv, down, wb, rh = coh in
  let c = r.Cmp.coherence in
  Alcotest.(check int) (label ^ " invalidations") inv c.U.Mem_hier.invalidations;
  Alcotest.(check int) (label ^ " downgrades") down c.U.Mem_hier.downgrades;
  Alcotest.(check int) (label ^ " writebacks") wb c.U.Mem_hier.writebacks;
  Alcotest.(check int) (label ^ " remote hits") rh c.U.Mem_hier.remote_hits;
  Alcotest.(check (list string)) (label ^ " legal directory") [] r.Cmp.violations

(* --- differential fuzz: sharing the backside never changes architecture --- *)

let test_cmp_diff () =
  for index = 0 to 5 do
    let r = Braid_check.Cmp_diff.check ~seed:7 ~index () in
    Alcotest.(check string)
      (Printf.sprintf "2-core case %d clean" index)
      "" (Braid_check.Cmp_diff.render r);
    Alcotest.(check bool) "ok" true (Braid_check.Cmp_diff.ok r)
  done

let test_cmp_diff_wide () =
  let r = Braid_check.Cmp_diff.check ~cores:4 ~seed:11 ~index:0 () in
  Alcotest.(check string) "4-core case clean" "" (Braid_check.Cmp_diff.render r);
  let r = Braid_check.Cmp_diff.check ~kind:Config.Ooo ~seed:11 ~index:1 () in
  Alcotest.(check string) "ooo case clean" "" (Braid_check.Cmp_diff.render r)

(* --- per-core counter namespacing --- *)

(* The CMP dump lists the shared backside once, unprefixed, then every
   core's own dump under "core<i>." — with no per-core copy of the shared
   L2. *)
let test_scoped_counters () =
  let ctx = Lazy.force ctx in
  let cfg = Config.braid_8wide in
  let cmp = Config.Cmp.make ~cores:2 ~workloads:[ "gzip"; "mcf" ] () in
  let r = Cmp_bench.run ctx ~seed:1 ~scale:1200 ~cfg cmp in
  let dump = Cmp.counters r in
  let count name =
    match List.assoc_opt name dump with
    | Some (U.Core.Count n) -> n
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  List.iter
    (fun (c : Cmp.core_result) ->
      Alcotest.(check int)
        (Printf.sprintf "core%d namespaced" c.Cmp.core_id)
        c.Cmp.result.U.Core.instructions
        (count (Printf.sprintf "core%d.commit.instrs" c.Cmp.core_id)))
    r.Cmp.cores;
  Alcotest.(check int) "shared unprefixed" r.Cmp.l2_hits (count "l2.hits");
  Alcotest.(check int) "coherence unprefixed"
    r.Cmp.coherence.U.Mem_hier.invalidations (count "coh.invalidations");
  Alcotest.(check bool) "no per-core copy of the shared L2" false
    (List.mem_assoc "core0.l2.hits" dump)

(* --- the cores pseudo-axis: grid and cache plumbing --- *)

let test_cores_axis () =
  (match Braid_dse.Axis.of_spec "cores=1,2,4" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match Braid_dse.Axis.of_spec "cores=0,2" with
  | Ok _ -> ()  (* axis syntax is fine; the grid bounds the value *)
  | Error m -> Alcotest.fail m);
  let axes =
    match Braid_dse.Axis.of_spec "cores=1,2" with
    | Ok a -> [ a ]
    | Error m -> Alcotest.fail m
  in
  match
    Braid_dse.Grid.expand ~base:Config.braid_8wide ~mode:Braid_dse.Grid.Cartesian
      axes
  with
  | Error m -> Alcotest.fail m
  | Ok points ->
      Alcotest.(check (list int))
        "cores reach the points"
        [ 1; 2 ]
        (List.map (fun p -> p.Braid_dse.Grid.cores) points);
      List.iter
        (fun p ->
          (* "cores" is a pseudo-axis: it must never reach Config.override *)
          Alcotest.(check string)
            "config digest independent of cores"
            (Config.digest Config.braid_8wide)
            (Config.digest p.Braid_dse.Grid.config))
        points

let test_cores_axis_bounds () =
  let axes =
    match Braid_dse.Axis.of_spec "cores=0" with
    | Ok a -> [ a ]
    | Error m -> Alcotest.fail m
  in
  match
    Braid_dse.Grid.expand ~base:Config.braid_8wide ~mode:Braid_dse.Grid.Cartesian
      axes
  with
  | Ok _ -> Alcotest.fail "cores=0 point accepted"
  | Error m ->
      Alcotest.(check bool)
        ("bounds named: " ^ m)
        true
        (Astring_contains.contains m "cores")

let test_cache_cmp_roundtrip () =
  let dir = Filename.temp_file "braid-cmp-cache" "" in
  Sys.remove dir;
  let cache =
    match Braid_dse.Cache.open_dir dir with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let key cores =
    {
      Braid_dse.Cache.config_digest = "abc123";
      bench = "gzip";
      seed = 1;
      scale = 1200;
      binary = "braid";
      ext_usable = 16;
      sampling = "";
      cores;
    }
  in
  let extra =
    {
      Braid_dse.Cache.per_core = [ (2619, 3309); (2818, 4384) ];
      solo = [ 2490; 2714 ];
      invalidations = 50;
      downgrades = 52;
      writebacks = 57;
      remote_hits = 74;
      l2_hits = 180;
      l2_misses = 2;
    }
  in
  let entry =
    { Braid_dse.Cache.cycles = 2818; instructions = 7693; cmp = Some extra }
  in
  Braid_dse.Cache.store cache (key 2) entry;
  (match Braid_dse.Cache.find cache (key 2) with
  | Some e -> Alcotest.(check bool) "cmp entry round-trips" true (e = entry)
  | None -> Alcotest.fail "cmp entry missing");
  (* the solo key must not alias the CMP entry *)
  Alcotest.(check bool)
    "cores is part of the address" true
    (Braid_dse.Cache.find cache (key 1) = None);
  (* a CMP key whose stored payload lacks the cmp extras is a miss, not
     a crash and not a bogus hit *)
  Braid_dse.Cache.store cache (key 4)
    { Braid_dse.Cache.cycles = 100; instructions = 200; cmp = None };
  Alcotest.(check bool)
    "incomplete CMP payload degrades to a miss" true
    (Braid_dse.Cache.find cache (key 4) = None);
  (* solo entries keep their pre-CMP shape and behaviour *)
  let solo_entry =
    { Braid_dse.Cache.cycles = 2490; instructions = 3309; cmp = None }
  in
  Braid_dse.Cache.store cache (key 1) solo_entry;
  match Braid_dse.Cache.find cache (key 1) with
  | Some e -> Alcotest.(check bool) "solo entry round-trips" true (e = solo_entry)
  | None -> Alcotest.fail "solo entry missing"

let test_sweep_cores_axis () =
  let ctx = Lazy.force ctx in
  let axes =
    match Braid_dse.Axis.of_spec "cores=1,2" with
    | Ok a -> [ a ]
    | Error m -> Alcotest.fail m
  in
  let points =
    match
      Braid_dse.Grid.expand ~base:Config.braid_8wide ~mode:Braid_dse.Grid.Cartesian
        axes
    with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let benches = [ Braid_workload.Spec.find "gzip" ] in
  let outcome =
    Braid_dse.Sweep.run ~ctx ~jobs:1 ~seed:1 ~scale:300 ~benches points
  in
  match outcome.Braid_dse.Sweep.results with
  | [ solo; cmp2 ] ->
      let solo_run = List.hd solo.Braid_dse.Sweep.runs in
      let cmp_run = List.hd cmp2.Braid_dse.Sweep.runs in
      Alcotest.(check bool)
        "solo point has no cmp extras" true
        (solo_run.Braid_dse.Sweep.cmp = None);
      let extra =
        match cmp_run.Braid_dse.Sweep.cmp with
        | Some e -> e
        | None -> Alcotest.fail "cmp point lost its extras"
      in
      Alcotest.(check int)
        "one (cycles, instructions) pair per core" 2
        (List.length extra.Braid_dse.Cache.per_core);
      (* rate-mode aggregate: per-core IPCs summed, recomputed from the
         cached integers *)
      let expected_ipc =
        List.fold_left
          (fun acc (c, i) -> acc +. (float_of_int i /. float_of_int (max 1 c)))
          0.0 extra.Braid_dse.Cache.per_core
      in
      Alcotest.(check (float 1e-12))
        "aggregate ipc" expected_ipc cmp_run.Braid_dse.Sweep.ipc;
      Alcotest.(check bool)
        "2-core throughput beats solo" true
        (cmp_run.Braid_dse.Sweep.ipc > solo_run.Braid_dse.Sweep.ipc);
      (* complexity scales with the tile count *)
      Alcotest.(check (float 1e-9))
        "complexity is per-core complexity × cores"
        (2.0 *. solo.Braid_dse.Sweep.complexity)
        cmp2.Braid_dse.Sweep.complexity
  | l -> Alcotest.fail (Printf.sprintf "expected 2 points, got %d" (List.length l))

(* --- Cmp.run argument validation --- *)

let test_run_validation () =
  let cfg = Config.braid_8wide in
  let cmp = Config.Cmp.make ~cores:2 ~workloads:[ "gzip" ] () in
  (match Cmp.run ~solo_cycles:[||] ~cfg ~cmp [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty workload array accepted");
  let p =
    Suite.prepare (Lazy.force ctx) ~seed:1 ~scale:300
      (Braid_workload.Spec.find "gzip")
  in
  let solo =
    [|
      {
        Cmp.w_bench = "gzip";
        w_trace = Suite.trace p cfg;
        w_warm_data = p.Suite.warm_data;
      };
    |]
  in
  (match Cmp.run ~solo_cycles:[| 1 |] ~cfg ~cmp solo with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "1 workload for 2 cores accepted");
  match
    Cmp_bench.run (Lazy.force ctx) ~seed:1 ~scale:300 ~cfg
      (Config.Cmp.make ~cores:1 ~workloads:[ "nope" ] ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown benchmark accepted"

let suite =
  ( "cmp",
    [
      Alcotest.test_case "core-kind vocabulary" `Quick test_core_kind_roundtrip;
      Alcotest.test_case "cmp config" `Quick test_cmp_config;
      Alcotest.test_case "solo equivalence (26×3 golden)" `Slow
        test_solo_equivalence;
    ]
    @ List.map
        (fun row ->
          let benches, cores, _, _, _, _ = row in
          Alcotest.test_case
            (Printf.sprintf "golden %d-core %s" cores
               (String.concat "+" benches))
            `Slow (check_golden_cmp row))
        golden_cmp
    @ [
        Alcotest.test_case "2-core differential fuzz" `Slow test_cmp_diff;
        Alcotest.test_case "4-core and ooo fuzz" `Slow test_cmp_diff_wide;
        Alcotest.test_case "scoped counters" `Quick test_scoped_counters;
        Alcotest.test_case "cores pseudo-axis" `Quick test_cores_axis;
        Alcotest.test_case "cores bounds" `Quick test_cores_axis_bounds;
        Alcotest.test_case "cache cmp entries" `Quick test_cache_cmp_roundtrip;
        Alcotest.test_case "sweep cores axis" `Slow test_sweep_cores_axis;
        Alcotest.test_case "run validation" `Quick test_run_validation;
      ] )

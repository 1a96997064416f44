(* The design-space-exploration subsystem: axis parsing, grid expansion,
   the content-addressed result cache (a warm re-run performs zero
   simulations — proven through the observability counters), and the
   fig6-equivalence guarantee that a sweep reproduces direct Suite runs
   bit-identically. *)

module Config = Braid_uarch.Config
module Spec = Braid_workload.Spec
module Suite = Braid_sim.Suite
module Dse = Braid_dse
module Obs = Braid_obs

let or_fail = function Ok v -> v | Error msg -> Alcotest.fail msg

let axis field values = or_fail (Dse.Axis.make ~field values)

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "braid-dse-test-%d" (Unix.getpid ()))
  in
  (* fresh per test run; the cache layer creates it *)
  dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_axis_spec () =
  let a = or_fail (Dse.Axis.of_spec "ext_regs=4,8,16") in
  Alcotest.(check string) "field" "ext_regs" a.Dse.Axis.field;
  Alcotest.(check (list string)) "values" [ "4"; "8"; "16" ] a.Dse.Axis.values;
  Alcotest.(check string) "spec round-trips" "ext_regs=4,8,16"
    (Dse.Axis.to_spec a);
  (match Dse.Axis.of_spec "no_such=1" with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error msg ->
      Alcotest.(check bool) "error lists sweepable fields" true
        (Astring_contains.contains msg "ext_regs"));
  (match Dse.Axis.of_spec "ext_regs=" with
  | Ok _ -> Alcotest.fail "empty values accepted"
  | Error _ -> ());
  match Dse.Axis.make ~field:"ext_regs" [ "8"; "8" ] with
  | Ok _ -> Alcotest.fail "duplicate values accepted"
  | Error _ -> ()

let test_grid_cartesian () =
  let axes =
    [ axis "ext_regs" [ "4"; "8" ]; axis "sched_window" [ "1"; "2" ] ]
  in
  let points =
    or_fail (Dse.Grid.expand ~base:Config.braid_8wide ~mode:Dse.Grid.Cartesian axes)
  in
  Alcotest.(check int) "2x2 grid" 4 (List.length points);
  Alcotest.(check (list string)) "labels, first axis outermost"
    [
      "ext_regs=4,sched_window=1";
      "ext_regs=4,sched_window=2";
      "ext_regs=8,sched_window=1";
      "ext_regs=8,sched_window=2";
    ]
    (List.map (fun (p : Dse.Grid.point) -> p.Dse.Grid.label) points);
  List.iter
    (fun (p : Dse.Grid.point) ->
      Alcotest.(check string) "point renamed base+label"
        (Config.braid_8wide.Config.name ^ "+" ^ p.Dse.Grid.label)
        p.Dse.Grid.config.Config.name)
    points;
  let last = List.nth points 3 in
  Alcotest.(check int) "override applied" 8
    last.Dse.Grid.config.Config.ext_regs;
  Alcotest.(check int) "second override applied" 2
    last.Dse.Grid.config.Config.sched_window

let test_grid_one_at_a_time () =
  let axes =
    [ axis "ext_regs" [ "4"; "16" ]; axis "clusters" [ "2"; "4" ] ]
  in
  let points =
    or_fail
      (Dse.Grid.expand ~base:Config.braid_8wide ~mode:Dse.Grid.One_at_a_time axes)
  in
  Alcotest.(check (list string)) "base plus each single deviation"
    [ "base"; "ext_regs=4"; "ext_regs=16"; "clusters=2"; "clusters=4" ]
    (List.map (fun (p : Dse.Grid.point) -> p.Dse.Grid.label) points)

let test_grid_rejects_invalid_point () =
  (* ext_regs=0 parses but does not validate: the whole grid must fail
     before any simulation can be scheduled *)
  (match
     Dse.Grid.expand ~base:Config.braid_8wide ~mode:Dse.Grid.Cartesian
       [ axis "ext_regs" [ "8"; "0" ] ]
   with
  | Ok _ -> Alcotest.fail "invalid grid point accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the offending point" true
        (Astring_contains.contains msg "ext_regs"));
  match
    Dse.Grid.expand ~base:Config.braid_8wide ~mode:Dse.Grid.Cartesian
      [ axis "ext_regs" [ "4" ]; axis "ext_regs" [ "8" ] ]
  with
  | Ok _ -> Alcotest.fail "duplicate axis accepted"
  | Error _ -> ()

let counter_value counters name =
  match List.assoc_opt name (Obs.Counters.snapshot counters) with
  | Some n -> n
  | None -> Alcotest.fail ("counter not found: " ^ name)

let strip_provenance (outcome : Dse.Sweep.outcome) =
  List.map
    (fun (pr : Dse.Sweep.point_result) ->
      ( pr.Dse.Sweep.point.Dse.Grid.label,
        pr.Dse.Sweep.digest,
        pr.Dse.Sweep.mean_ipc,
        List.map
          (fun (r : Dse.Sweep.run) ->
            (r.Dse.Sweep.bench, r.Dse.Sweep.cycles, r.Dse.Sweep.instructions,
             r.Dse.Sweep.ipc))
          pr.Dse.Sweep.runs ))
    outcome.Dse.Sweep.results

(* The headline cache guarantee: run a small sweep twice against one cache
   directory — the second run (fresh context, fresh counters) performs zero
   simulations and returns bit-identical results. *)
let test_sweep_cache () =
  let dir = temp_dir () in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let points =
        or_fail
          (Dse.Grid.expand ~base:Config.braid_8wide ~mode:Dse.Grid.Cartesian
             [ axis "ext_regs" [ "8"; "16" ] ])
      in
      let benches = [ Spec.find "gzip"; Spec.find "crafty" ] in
      let sweep () =
        let cache = or_fail (Dse.Cache.open_dir dir) in
        let ctx = Suite.create_ctx () in
        let counters = Obs.Counters.create () in
        let outcome =
          Dse.Sweep.run ~counters ~cache ~ctx ~jobs:2 ~seed:1 ~scale:1200 ~benches
            points
        in
        (outcome, counters)
      in
      let cold, cold_obs = sweep () in
      Alcotest.(check int) "cold run simulates everything" 4
        cold.Dse.Sweep.stats.Dse.Sweep.simulated;
      Alcotest.(check int) "cold run hits nothing" 0
        cold.Dse.Sweep.stats.Dse.Sweep.cache_hits;
      Alcotest.(check int) "cold counter dse.simulations" 4
        (counter_value cold_obs "dse.simulations");
      let warm, warm_obs = sweep () in
      Alcotest.(check int) "warm run performs zero simulations" 0
        warm.Dse.Sweep.stats.Dse.Sweep.simulated;
      Alcotest.(check int) "warm run is pure cache reads" 4
        warm.Dse.Sweep.stats.Dse.Sweep.cache_hits;
      Alcotest.(check int) "warm counter dse.simulations" 0
        (counter_value warm_obs "dse.simulations");
      Alcotest.(check int) "warm counter dse.cache_hits" 4
        (counter_value warm_obs "dse.cache_hits");
      Alcotest.(check bool) "cached results bit-identical" true
        (strip_provenance cold = strip_provenance warm);
      List.iter
        (fun (pr : Dse.Sweep.point_result) ->
          List.iter
            (fun (r : Dse.Sweep.run) ->
              Alcotest.(check bool) "warm runs flagged from_cache" true
                r.Dse.Sweep.from_cache)
            pr.Dse.Sweep.runs)
        warm.Dse.Sweep.results;
      (* corrupt one entry: a self-verifying cache degrades it to a miss *)
      let rec first_file path =
        if Sys.is_directory path then
          Array.fold_left
            (fun acc e ->
              match acc with
              | Some _ -> acc
              | None -> first_file (Filename.concat path e))
            None (Sys.readdir path)
        else if Filename.check_suffix path ".json" then Some path
        else None
      in
      (match first_file dir with
      | None -> Alcotest.fail "cache wrote no entries"
      | Some f ->
          let oc = open_out f in
          output_string oc "{\"schema\":\"bogus\"}";
          close_out oc);
      let repaired, _ = sweep () in
      Alcotest.(check int) "corrupt entry re-simulated" 1
        repaired.Dse.Sweep.stats.Dse.Sweep.simulated;
      Alcotest.(check int) "intact entries still hit" 3
        repaired.Dse.Sweep.stats.Dse.Sweep.cache_hits;
      Alcotest.(check bool) "repaired results bit-identical" true
        (strip_provenance cold = strip_provenance repaired))

(* A braid ext_regs sweep must reproduce the Fig 6 methodology exactly:
   recompile with the matching external budget and produce the same IPC a
   direct Suite run does, bit for bit. *)
let test_fig6_equivalence () =
  let values = [ 4; 8; 256 ] in
  let points =
    or_fail
      (Dse.Grid.expand ~base:Config.braid_8wide ~mode:Dse.Grid.Cartesian
         [ axis "ext_regs" (List.map string_of_int values) ])
  in
  let gzip = Spec.find "gzip" in
  let outcome =
    let ctx = Suite.create_ctx () in
    Dse.Sweep.run ~ctx ~jobs:1 ~seed:1 ~scale:2000 ~benches:[ gzip ] points
  in
  let manual_ctx = Suite.create_ctx () in
  List.iter2
    (fun n (pr : Dse.Sweep.point_result) ->
      let cfg = pr.Dse.Sweep.point.Dse.Grid.config in
      Alcotest.(check int) "point carries the swept value" n
        cfg.Config.ext_regs;
      let usable = min n Braid_core.Extalloc.usable_per_class in
      Alcotest.(check int) "braid budget capped at the hardware" usable
        (Dse.Sweep.ext_usable_of cfg);
      let p =
        Suite.prepare manual_ctx ~seed:1 ~scale:2000 ~ext_usable:usable gzip
      in
      let r = Suite.run manual_ctx p cfg in
      let run = List.hd pr.Dse.Sweep.runs in
      Alcotest.(check int) "cycles match a direct run"
        r.Braid_uarch.Core.cycles run.Dse.Sweep.cycles;
      Alcotest.(check int) "instructions match a direct run"
        r.Braid_uarch.Core.instructions run.Dse.Sweep.instructions;
      Alcotest.(check bool) "IPC bit-identical to a direct run" true
        (Float.equal r.Braid_uarch.Core.ipc run.Dse.Sweep.ipc))
    values outcome.Dse.Sweep.results

let test_frontier () =
  let points =
    or_fail
      (Dse.Grid.expand ~base:Config.braid_8wide ~mode:Dse.Grid.One_at_a_time
         [ axis "clusters" [ "4" ] ])
  in
  let ctx = Suite.create_ctx () in
  let outcome =
    Dse.Sweep.run ~ctx ~jobs:1 ~seed:1 ~scale:1200
      ~benches:[ Spec.find "gzip" ] points
  in
  let flagged = Dse.Frontier.pareto outcome.Dse.Sweep.results in
  Alcotest.(check int) "every point flagged" 2 (List.length flagged);
  Alcotest.(check bool) "at least one Pareto-optimal point" true
    (List.exists snd flagged);
  let rendered = Dse.Frontier.render outcome in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("table mentions " ^ fragment) true
        (Astring_contains.contains rendered fragment))
    [ "base"; "clusters=4"; "simulated" ];
  let axes = [ axis "clusters" [ "4" ] ] in
  let json =
    Dse.Frontier.to_json ~preset:Config.braid_8wide
      ~mode:Dse.Grid.One_at_a_time ~axes ~seed:1 ~scale:1200 outcome
  in
  match Json.parse json with
  | Error msg -> Alcotest.fail ("frontier JSON invalid: " ^ msg)
  | Ok doc ->
      Alcotest.(check bool) "schema stamped" true
        (Json.member "schema" doc
        = Some (Json.Str "braidsim-sweep/1"))

(* --- frontier properties over fabricated sweep results --- *)

let mk_point i (complexity, mean_ipc) =
  {
    Dse.Sweep.point =
      {
        Dse.Grid.label = Printf.sprintf "p%d" i;
        bindings = [];
        config = Config.braid_8wide;
        cores = 1;
      };
    digest = Printf.sprintf "d%d" i;
    complexity;
    mean_ipc;
    runs = [];
  }

let arb_metric_pairs =
  let open QCheck in
  let pair_gen =
    Gen.map
      (fun (c, i) -> (float_of_int c, float_of_int i /. 8.))
      Gen.(pair (int_range 1 40) (int_range 1 40))
  in
  make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (c, i) -> Printf.sprintf "(%g,%g)" c i) l))
    Gen.(list_size (int_range 1 12) pair_gen)

let dominates (q : Dse.Sweep.point_result) (p : Dse.Sweep.point_result) =
  q.Dse.Sweep.mean_ipc >= p.Dse.Sweep.mean_ipc
  && q.Dse.Sweep.complexity <= p.Dse.Sweep.complexity
  && (q.Dse.Sweep.mean_ipc > p.Dse.Sweep.mean_ipc
     || q.Dse.Sweep.complexity < p.Dse.Sweep.complexity)

let qcheck_pareto_undominated =
  QCheck.Test.make ~name:"pareto points are undominated" ~count:300
    arb_metric_pairs (fun pairs ->
      let results = List.mapi mk_point pairs in
      List.for_all
        (fun ((p : Dse.Sweep.point_result), optimal) ->
          let beaten = List.exists (fun q -> dominates q p) results in
          if optimal then not beaten else beaten)
        (Dse.Frontier.pareto results))

let shuffle seed l =
  let a = Array.of_list l in
  let rng = Prng.create (Int64.of_int seed) in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int_in rng 0 i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let qcheck_pareto_order_independent =
  QCheck.Test.make ~name:"pareto is order-independent" ~count:300
    QCheck.(pair arb_metric_pairs small_nat)
    (fun (pairs, seed) ->
      let results = List.mapi mk_point pairs in
      let optimal l =
        Dse.Frontier.pareto l
        |> List.filter_map (fun ((p : Dse.Sweep.point_result), opt) ->
               if opt then Some p.Dse.Sweep.point.Dse.Grid.label else None)
        |> List.sort compare
      in
      optimal results = optimal (shuffle seed results))

let suite =
  ( "dse",
    [
      Alcotest.test_case "axis spec" `Quick test_axis_spec;
      Alcotest.test_case "grid cartesian" `Quick test_grid_cartesian;
      Alcotest.test_case "grid one-at-a-time" `Quick test_grid_one_at_a_time;
      Alcotest.test_case "grid rejects invalid point" `Quick
        test_grid_rejects_invalid_point;
      Alcotest.test_case "sweep cache" `Slow test_sweep_cache;
      Alcotest.test_case "fig6 equivalence" `Slow test_fig6_equivalence;
      Alcotest.test_case "frontier" `Quick test_frontier;
      QCheck_alcotest.to_alcotest qcheck_pareto_undominated;
      QCheck_alcotest.to_alcotest qcheck_pareto_order_independent;
    ] )

(* Tests for the characterisation passes (Value_stats, Braid_stats) and the
   render / experiment plumbing. *)

module C = Braid_core
module Spec = Braid_workload.Spec

let r n = Reg.ext Reg.Cint n
let i op = Instr.make op

let straight instrs =
  Program.make
    [ { Program.id = 0; instrs = Array.of_list (instrs @ [ i Op.Halt ]); fallthrough = None } ]
    ~entry:0

(* --- Value_stats --- *)

let test_fanout_basic () =
  (* v1 read twice, v2 read once, v3 never *)
  let p =
    straight
      [
        i (Op.Movi (r 1, 1L));
        i (Op.Ibini (Op.Add, r 2, r 1, 1));
        i (Op.Ibin (Op.Add, r 3, r 1, r 2));
      ]
  in
  let t = Option.get (Emulator.run p).Emulator.trace in
  let vs = C.Value_stats.of_trace t in
  Alcotest.(check int) "three values" 3 vs.C.Value_stats.values;
  Alcotest.(check (float 1e-9)) "one unused (r3)" (1.0 /. 3.0)
    (C.Value_stats.unused_fraction vs);
  Alcotest.(check (float 1e-9)) "one read exactly twice" (1.0 /. 3.0)
    (C.Value_stats.fanout_exactly vs 2)

let test_fanout_redefinition_cuts () =
  (* the first value of r1 is read once, then r1 is redefined; reads after
     that belong to the second value *)
  let p =
    straight
      [
        i (Op.Movi (r 1, 1L));
        i (Op.Ibini (Op.Add, r 2, r 1, 0));
        i (Op.Movi (r 1, 5L));
        i (Op.Ibini (Op.Add, r 3, r 1, 0));
        i (Op.Ibini (Op.Add, r 4, r 1, 0));
      ]
  in
  let t = Option.get (Emulator.run p).Emulator.trace in
  let vs = C.Value_stats.of_trace t in
  (* values: r1#1 read once; r2, r3, r4 never read; r1#2 read twice *)
  Alcotest.(check (float 1e-9)) "fanout-1 values" (1.0 /. 5.0)
    (C.Value_stats.fanout_exactly vs 1);
  Alcotest.(check (float 1e-9)) "fanout-2 value" (1.0 /. 5.0)
    (C.Value_stats.fanout_exactly vs 2);
  Alcotest.(check (float 1e-9)) "unused values" (3.0 /. 5.0)
    (C.Value_stats.unused_fraction vs)

let test_lifetime () =
  let p =
    straight
      [
        i (Op.Movi (r 1, 1L));
        (* uid 0 *)
        i Op.Nop;
        i Op.Nop;
        i (Op.Ibini (Op.Add, r 2, r 1, 0));
        (* uid 3: lifetime of r1's value = 3 *)
      ]
  in
  let t = Option.get (Emulator.run p).Emulator.trace in
  let vs = C.Value_stats.of_trace t in
  Alcotest.(check (float 1e-9)) "lifetime <= 2 excludes it" 0.0
    (C.Value_stats.lifetime_at_most vs 2);
  Alcotest.(check (float 1e-9)) "lifetime <= 3 includes it" 1.0
    (C.Value_stats.lifetime_at_most vs 3)

(* --- Braid_stats --- *)

let test_braid_stats_shapes () =
  let prog, _ = Spec.generate (Spec.find "gcc") ~seed:1 ~scale:1500 in
  let rep = C.Transform.run prog in
  let stats = C.Braid_stats.of_program rep.C.Transform.program in
  Alcotest.(check bool) "braids found" true (List.length stats.C.Braid_stats.braids > 0);
  List.iter
    (fun (b : C.Braid_stats.braid_info) ->
      Alcotest.(check bool) "size positive" true (b.C.Braid_stats.size > 0);
      Alcotest.(check bool) "depth within size" true
        (b.C.Braid_stats.depth >= 1 && b.C.Braid_stats.depth <= b.C.Braid_stats.size);
      Alcotest.(check bool) "width >= 1" true (b.C.Braid_stats.width >= 1.0 -. 1e-9);
      Alcotest.(check bool) "internals within size" true
        (b.C.Braid_stats.internals <= b.C.Braid_stats.size);
      Alcotest.(check bool) "single iff size 1" true
        (b.C.Braid_stats.is_single = (b.C.Braid_stats.size = 1)))
    stats.C.Braid_stats.braids;
  let s = C.Braid_stats.summarize stats in
  Alcotest.(check bool) "braids/block >= multi" true
    (s.C.Braid_stats.braids_per_block >= s.C.Braid_stats.braids_per_block_multi);
  Alcotest.(check bool) "single fraction sane" true
    (s.C.Braid_stats.single_instr_fraction >= 0.0
    && s.C.Braid_stats.single_instr_fraction <= 1.0)

let test_braid_stats_fp_bigger () =
  let summarize name =
    let prog, _ = Spec.generate (Spec.find name) ~seed:1 ~scale:2000 in
    C.Braid_stats.summarize
      (C.Braid_stats.of_program (C.Transform.run prog).C.Transform.program)
  in
  let mcf = summarize "mcf" and mgrid = summarize "mgrid" in
  Alcotest.(check bool) "mgrid braids bigger than mcf (paper Table 2)" true
    (mgrid.C.Braid_stats.avg_size_multi > mcf.C.Braid_stats.avg_size_multi)

(* --- Render --- *)

let test_render_table () =
  let s = Render.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "33"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has header, rule, rows" true (List.length lines >= 4);
  Alcotest.check_raises "ragged rejected" (Invalid_argument "Render.table: ragged row")
    (fun () -> ignore (Render.table ~header:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

let test_render_bar_chart () =
  let s = Render.bar_chart ~title:"t" [ ("x", 1.0); ("y", 2.0) ] in
  Alcotest.(check bool) "mentions labels" true
    (String.length s > 0
    && Astring_contains.contains s "x"
    && Astring_contains.contains s "y");
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Render.bar_chart: negative value") (fun () ->
      ignore (Render.bar_chart ~title:"t" [ ("x", -1.0) ]))

let test_render_pct () =
  Alcotest.(check string) "pct" "91.2%" (Render.pct 0.912);
  Alcotest.(check string) "float cell" "1.250" (Render.float_cell 1.25)

(* --- Experiments plumbing (tiny scale) --- *)

let test_experiment_registry () =
  Alcotest.(check bool) "all experiments listed" true
    (List.length Braid_sim.Experiments.all >= 18);
  let ids =
    List.map
      (fun (e : Braid_sim.Experiments.t) -> e.Braid_sim.Experiments.id)
      Braid_sim.Experiments.all
  in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id -> Alcotest.(check bool) ("has " ^ id) true (List.mem id ids))
    [ "table1"; "table2"; "table3"; "fig1"; "fig5"; "fig6"; "fig13"; "fig14" ]

let test_experiment_runs () =
  let ctx = Braid_sim.Suite.create_ctx () in
  let o =
    match
      Braid_sim.Runner.run_experiments ~ctx ~jobs:1 ~scale:1200
        [ Braid_sim.Experiments.find "table1" ]
    with
    | [ o ] -> o
    | _ -> Alcotest.fail "one result per experiment"
  in
  Alcotest.(check string) "id" "table1" o.Braid_sim.Experiments.id;
  Alcotest.(check bool) "rendered non-empty" true
    (String.length (Braid_sim.Report.render o) > 100);
  Alcotest.(check bool) "typed rows present" true
    (List.for_all
       (fun (s : Braid_sim.Experiments.series) ->
         List.length s.Braid_sim.Experiments.rows > 0)
       o.Braid_sim.Experiments.series
    && o.Braid_sim.Experiments.series <> []);
  Alcotest.(check bool) "headline present" true
    (List.length o.Braid_sim.Experiments.headline > 0)

let test_experiment_unknown () =
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Braid_sim.Experiments.find "fig99");
       false
     with Not_found -> true)

let test_suite_memoisation () =
  let ctx = Braid_sim.Suite.create_ctx () in
  let p1 = Braid_sim.Suite.prepare ctx ~scale:1200 (Spec.find "gcc") in
  let p2 = Braid_sim.Suite.prepare ctx ~scale:1200 (Spec.find "gcc") in
  Alcotest.(check bool) "same prepared value" true (p1 == p2)

let suite =
  ( "stats-experiments",
    [
      Alcotest.test_case "fanout basic" `Quick test_fanout_basic;
      Alcotest.test_case "fanout redefinition" `Quick test_fanout_redefinition_cuts;
      Alcotest.test_case "lifetime" `Quick test_lifetime;
      Alcotest.test_case "braid stats shapes" `Quick test_braid_stats_shapes;
      Alcotest.test_case "fp braids bigger" `Quick test_braid_stats_fp_bigger;
      Alcotest.test_case "render table" `Quick test_render_table;
      Alcotest.test_case "render bar chart" `Quick test_render_bar_chart;
      Alcotest.test_case "render pct" `Quick test_render_pct;
      Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
      Alcotest.test_case "experiment runs" `Slow test_experiment_runs;
      Alcotest.test_case "experiment unknown" `Quick test_experiment_unknown;
      Alcotest.test_case "suite memoisation" `Quick test_suite_memoisation;
    ] )

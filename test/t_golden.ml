(* Golden-number regression: exact instruction counts, cycle counts, and
   IPC for the full 26-benchmark suite on all four simulated core models,
   pinned to the timing model's established behaviour. The hot-path work
   in this repo (calendar queues, flat-array machine state, static
   disambiguation tables) must never move a single cycle: any diff here is
   a modeling change, not an optimisation, and needs its own
   justification. *)

module Suite = Braid_sim.Suite
module U = Braid_uarch

type core = In_order | Ooo | Braid | Cgooo

let core_name = function
  | In_order -> "in-order"
  | Ooo -> "ooo"
  | Braid -> "braid"
  | Cgooo -> "cgooo"

(* every benchmark in Spec.all: (bench, core, instructions, cycles) at
   scale 1200, seed defaults — harvested from `braidsim run BENCH --core
   CORE --scale 1200`, which exercises the identical Suite path *)
let golden =
  [
    ("bzip2", In_order, 3418, 4314);
    ("bzip2", Ooo, 3418, 2560);
    ("bzip2", Braid, 3418, 2483);
    ("bzip2", Cgooo, 3418, 3805);
    ("crafty", In_order, 4254, 4506);
    ("crafty", Ooo, 4254, 2570);
    ("crafty", Braid, 4254, 2561);
    ("crafty", Cgooo, 4254, 3952);
    ("eon", In_order, 1885, 2406);
    ("eon", Ooo, 1885, 933);
    ("eon", Braid, 1885, 923);
    ("eon", Cgooo, 1885, 1996);
    ("gap", In_order, 3412, 4536);
    ("gap", Ooo, 3412, 2822);
    ("gap", Braid, 3412, 2757);
    ("gap", Cgooo, 3412, 4084);
    ("gcc", In_order, 2619, 3035);
    ("gcc", Ooo, 2619, 1857);
    ("gcc", Braid, 2619, 1771);
    ("gcc", Cgooo, 2619, 2704);
    ("gzip", In_order, 3309, 4177);
    ("gzip", Ooo, 3309, 2568);
    ("gzip", Braid, 3309, 2490);
    ("gzip", Cgooo, 3309, 3697);
    ("mcf", In_order, 975, 2023);
    ("mcf", Ooo, 975, 951);
    ("mcf", Braid, 975, 995);
    ("mcf", Cgooo, 975, 1442);
    ("parser", In_order, 2203, 2882);
    ("parser", Ooo, 2203, 1622);
    ("parser", Braid, 2203, 1721);
    ("parser", Cgooo, 2203, 2173);
    ("perlbmk", In_order, 3304, 4326);
    ("perlbmk", Ooo, 3304, 2692);
    ("perlbmk", Braid, 3304, 2614);
    ("perlbmk", Cgooo, 3304, 3865);
    ("twolf", In_order, 2398, 2707);
    ("twolf", Ooo, 2398, 1104);
    ("twolf", Braid, 2398, 1174);
    ("twolf", Cgooo, 2398, 2221);
    ("vortex", In_order, 3642, 4668);
    ("vortex", Ooo, 3642, 2513);
    ("vortex", Braid, 3642, 2468);
    ("vortex", Cgooo, 3642, 4143);
    ("vpr", In_order, 2334, 2641);
    ("vpr", Ooo, 2334, 1240);
    ("vpr", Braid, 2334, 1304);
    ("vpr", Cgooo, 2334, 1911);
    ("ammp", In_order, 4647, 9500);
    ("ammp", Ooo, 4647, 1183);
    ("ammp", Braid, 4647, 1488);
    ("ammp", Cgooo, 4647, 9047);
    ("applu", In_order, 4393, 7449);
    ("applu", Ooo, 4393, 1030);
    ("applu", Braid, 4393, 1283);
    ("applu", Cgooo, 4393, 7271);
    ("apsi", In_order, 4721, 7697);
    ("apsi", Ooo, 4721, 1334);
    ("apsi", Braid, 4721, 1537);
    ("apsi", Cgooo, 4721, 7314);
    ("art", In_order, 11739, 17395);
    ("art", Ooo, 11739, 2827);
    ("art", Braid, 11739, 3924);
    ("art", Cgooo, 11739, 16729);
    ("equake", In_order, 3740, 5652);
    ("equake", Ooo, 3740, 901);
    ("equake", Braid, 3740, 1253);
    ("equake", Cgooo, 3740, 5433);
    ("facerec", In_order, 6902, 10182);
    ("facerec", Ooo, 6902, 1976);
    ("facerec", Braid, 6902, 2644);
    ("facerec", Cgooo, 6902, 9561);
    ("fma3d", In_order, 4124, 8682);
    ("fma3d", Ooo, 4124, 1085);
    ("fma3d", Braid, 4124, 1510);
    ("fma3d", Cgooo, 4124, 8141);
    ("galgel", In_order, 3677, 5530);
    ("galgel", Ooo, 3677, 1082);
    ("galgel", Braid, 3677, 1363);
    ("galgel", Cgooo, 3677, 5230);
    ("lucas", In_order, 3279, 6083);
    ("lucas", Ooo, 3279, 698);
    ("lucas", Braid, 3279, 1178);
    ("lucas", Cgooo, 3279, 6034);
    ("mesa", In_order, 3867, 5284);
    ("mesa", Ooo, 3867, 1163);
    ("mesa", Braid, 3867, 1334);
    ("mesa", Cgooo, 3867, 4744);
    ("mgrid", In_order, 4574, 7433);
    ("mgrid", Ooo, 4574, 1093);
    ("mgrid", Braid, 4574, 1560);
    ("mgrid", Cgooo, 4574, 7250);
    ("sixtrack", In_order, 3376, 6476);
    ("sixtrack", Ooo, 3376, 1020);
    ("sixtrack", Braid, 3376, 1227);
    ("sixtrack", Cgooo, 3376, 6046);
    ("swim", In_order, 8984, 15716);
    ("swim", Ooo, 8984, 1585);
    ("swim", Braid, 8984, 1998);
    ("swim", Cgooo, 8984, 15341);
    ("wupwise", In_order, 4982, 7686);
    ("wupwise", Ooo, 4982, 1464);
    ("wupwise", Braid, 4982, 1844);
    ("wupwise", Cgooo, 4982, 7193);
  ]

let ctx = lazy (Suite.create_ctx ())

let check_one bench core instrs cycles () =
  let ctx = Lazy.force ctx in
  let p = Suite.prepare ctx ~scale:1200 (Braid_workload.Spec.find bench) in
  let r =
    Suite.run ctx p
      (match core with
      | In_order -> U.Config.in_order_8wide
      | Ooo -> U.Config.ooo_8wide
      | Braid -> U.Config.braid_8wide
      | Cgooo -> U.Config.cgooo_8wide)
  in
  Alcotest.(check int) "instructions" instrs r.U.Core.instructions;
  Alcotest.(check int) "cycles" cycles r.U.Core.cycles;
  Alcotest.(check (float 1e-12))
    "ipc"
    (float_of_int instrs /. float_of_int cycles)
    r.U.Core.ipc

(* Suite memoises on content. Seeds 1-3 of all 26 benchmarks on the
   shared ctx must each equal a fresh ctx's result, although many of them
   run traces of equal length. Two configs that differ only in name share
   one simulation, and each result carries its caller's name. *)
let test_memo_keyed_on_content () =
  let ctx = Lazy.force ctx in
  let cfgs = [ U.Config.ooo_8wide; U.Config.braid_8wide ] in
  List.iter
    (fun (pr : Braid_workload.Spec.profile) ->
      List.iter
        (fun seed ->
          let fresh = Suite.create_ctx () in
          let p = Suite.prepare ctx ~seed ~scale:1200 pr in
          let q = Suite.prepare fresh ~seed ~scale:1200 pr in
          List.iter
            (fun (cfg : U.Config.t) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d on %s: shared ctx = fresh ctx"
                   pr.Braid_workload.Spec.name seed cfg.U.Config.name)
                true
                (Suite.run ctx p cfg = Suite.run fresh q cfg))
            cfgs)
        [ 1; 2; 3 ])
    Braid_workload.Spec.all;
  let p = Suite.prepare ctx ~scale:1200 (Braid_workload.Spec.find "gzip") in
  let a = Suite.run ctx p U.Config.braid_8wide in
  let b = Suite.run ctx p { U.Config.braid_8wide with U.Config.name = "x" } in
  Alcotest.(check string) "own name" U.Config.braid_8wide.U.Config.name
    a.U.Core.config_name;
  Alcotest.(check string) "renamed copy's name" "x" b.U.Core.config_name;
  Alcotest.(check bool) "equal but for the name" true
    ({ b with U.Core.config_name = a.U.Core.config_name } = a)

let test_covers_all_benchmarks () =
  (* the table above must track Spec.all: a new benchmark needs golden rows *)
  let named = List.map (fun (b, _, _, _) -> b) golden in
  List.iter
    (fun (s : Braid_workload.Spec.profile) ->
      Alcotest.(check bool)
        (Printf.sprintf "golden rows for %s on all four cores" s.Braid_workload.Spec.name)
        true
        (List.length (List.filter (String.equal s.Braid_workload.Spec.name) named) = 4))
    Braid_workload.Spec.all

let suite =
  ( "golden",
    Alcotest.test_case "covers every benchmark" `Quick test_covers_all_benchmarks
    :: List.map
         (fun (bench, core, instrs, cycles) ->
           Alcotest.test_case
             (Printf.sprintf "%s/%s" bench (core_name core))
             `Slow
             (check_one bench core instrs cycles))
         golden
    @ [ Alcotest.test_case "memo keyed on content" `Slow test_memo_keyed_on_content ] )

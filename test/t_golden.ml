(* Golden-number regression: exact instruction counts, cycle counts, and
   IPC for the full 26-benchmark suite on four simulated core models, and
   one digest over every result field and counter on all five, pinned to
   the timing model's established behaviour. The hot-path work
   in this repo (calendar queues, flat-array machine state, dependences
   registered at dispatch) must never move a single cycle: any diff here is
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

(* Every field of every event view of both binaries' traces, for all 26
   benchmarks, plus a mid-run window opened after a [restore]: the
   trace representation may change, the traces it describes may not. *)
let event_line b (e : Trace.event) =
  Printf.bprintf b "%d %d %d %d %s [%s] %d %b %b %b %b %b %d %b %b %d %d %d %b %b\n"
    e.Trace.uid e.Trace.pc e.Trace.block_id e.Trace.offset
    (Disasm.instr e.Trace.instr)
    (String.concat ";"
       (Array.to_list
          (Array.map (fun (p, via) -> Printf.sprintf "%d%s" p (if via then "i" else ""))
             e.Trace.deps)))
    e.Trace.addr e.Trace.is_load e.Trace.is_store e.Trace.is_cond_branch
    e.Trace.is_jump e.Trace.taken e.Trace.latency e.Trace.writes_ext
    e.Trace.writes_int e.Trace.ext_src_reads e.Trace.int_src_reads
    e.Trace.braid_id e.Trace.braid_start e.Trace.faulting

let trace_digest (t : Trace.t) =
  let b = Buffer.create 65536 in
  Printf.bprintf b "%d %b\n" (Trace.length t) (Trace.stop t = Trace.Halted);
  for u = 0 to Trace.length t - 1 do
    event_line b (Trace.event t u)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_trace_digest () =
  let ctx = Lazy.force ctx in
  let digests =
    List.concat_map
      (fun (pr : Braid_workload.Spec.profile) ->
        let p = Suite.prepare ctx ~scale:1200 pr in
        List.concat_map
          (fun (program, full) ->
            let n = Trace.length full in
            let r =
              Emulator.Compiled.start ~init_mem:p.Suite.init_mem
                (Emulator.Compiled.compile program)
            in
            let snap = Emulator.Compiled.snapshot r in
            ignore (Emulator.Compiled.advance r ~fuel:n : int);
            Emulator.Compiled.restore r snap;
            ignore (Emulator.Compiled.advance r ~fuel:(n / 3) : int);
            let window = Emulator.Compiled.trace_window r ~max_steps:n in
            [ trace_digest full; trace_digest window ])
          [
            (p.Suite.conventional.Braid_core.Extalloc.program, p.Suite.conv_trace ());
            (p.Suite.braid.Braid_core.Transform.program, p.Suite.braid_trace ());
          ])
      Braid_workload.Spec.all
  in
  Alcotest.(check string) "MD5 over every event view" "4f369bc394b00b4a9bd1c29c66fae11d"
    (Digest.to_hex (Digest.string (String.concat "" digests)))

(* Every field of [Core.result] and every entry of [Core.counters] (the
   occupancy histogram included; floats as their bits), for all 26
   benchmarks on all five kinds at scale 1200, for perfbench's six-point
   braid grid on gzip and mcf at scale 12000, and for braid cores whose
   loads take zero cycles (an issue still occupies its BEU for one): the
   numbers the instruction/cycle table above leaves unpinned. *)
let counters_line b (cfg : U.Config.t) (c : U.Core.t) =
  let r = U.Core.result c in
  Printf.bprintf b "%s %s %d %d %Ld %Ld [%s]\n" cfg.U.Config.name
    r.U.Core.config_name r.U.Core.instructions r.U.Core.cycles
    (Int64.bits_of_float r.U.Core.ipc)
    (Int64.bits_of_float r.U.Core.avg_occupancy)
    (String.concat " " (Array.to_list (Array.map string_of_int (U.Core.counts r))));
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  List.iter
    (function
      | name, U.Core.Count n -> Printf.bprintf b "%s %d\n" name n
      | name, U.Core.Hist { bounds; counts; observations; sum } ->
          Printf.bprintf b "%s [%s] [%s] %d %d\n" name (ints bounds) (ints counts)
            observations sum)
    (U.Core.counters c)

(* How a digest simulates [cfg] on a preparation: over its stored trace,
   or over a stream of it at the config's minimum window. *)
let stored (p : Suite.prepared) cfg =
  U.Core.run ~warm_data:p.Suite.warm_data cfg (Suite.trace p cfg)

let streamed (p : Suite.prepared) (cfg : U.Config.t) =
  let program =
    if U.Config.Core_kind.braid_binary cfg.U.Config.kind then
      p.Suite.braid.Braid_core.Transform.program
    else p.Suite.conventional.Braid_core.Extalloc.program
  in
  U.Core.run ~warm_data:p.Suite.warm_data cfg
    (Emulator.stream ~max_steps:(50 * p.Suite.scale) ~init_mem:p.Suite.init_mem
       ~release:(U.Config.Core_kind.releases_early cfg.U.Config.kind)
       ~capacity:(U.Core.min_window cfg) program)

let counter_digest run =
  let ctx = Lazy.force ctx in
  let b = Buffer.create 65536 in
  let simulate p cfg = counters_line b cfg (run p cfg) in
  List.iter
    (fun (pr : Braid_workload.Spec.profile) ->
      let p = Suite.prepare ctx ~scale:1200 pr in
      List.iter
        (fun k -> simulate p (U.Config.preset_of_kind k))
        U.Config.Core_kind.all)
    Braid_workload.Spec.all;
  List.iter
    (fun bench ->
      List.iter
        (fun clusters ->
          List.iter
            (fun entries ->
              let cfg =
                Result.get_ok
                  (U.Config.override U.Config.braid_8wide
                     [ ("clusters", clusters); ("cluster_entries", entries) ])
              in
              let p =
                Suite.prepare ctx ~scale:12000
                  ~ext_usable:(Braid_dse.Sweep.ext_usable_of cfg)
                  (Braid_workload.Spec.find bench)
              in
              simulate p cfg)
            [ "8"; "32" ])
        [ "4"; "8"; "16" ])
    [ "gzip"; "mcf" ];
  List.iter
    (fun (cfg : U.Config.t) ->
      let cfg =
        Result.get_ok
          (U.Config.override cfg [ ("l1d.latency", "0"); ("perfect_dcache", "true") ])
      in
      List.iter
        (fun bench ->
          simulate (Suite.prepare ctx ~scale:1200 (Braid_workload.Spec.find bench)) cfg)
        [ "gzip"; "mcf"; "swim" ])
    [ U.Config.braid_8wide; { U.Config.braid_8wide with U.Config.beu_out_of_order = true } ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let counter_md5 = "5e6e620d54a7c0e4b84429dc65fb8e2f"

let test_counter_digest () =
  Alcotest.(check string) "MD5 over every result field and counter" counter_md5
    (counter_digest stored)

(* The lines of [configs] on all 26 benchmarks at scale 1200, benchmarks
   outer. *)
let configs_digest run configs =
  let ctx = Lazy.force ctx in
  let b = Buffer.create 65536 in
  List.iter
    (fun (pr : Braid_workload.Spec.profile) ->
      let p = Suite.prepare ctx ~scale:1200 pr in
      List.iter (fun cfg -> counters_line b cfg (run p cfg)) configs)
    Braid_workload.Spec.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The same lines for configurations off the presets, on all 26
   benchmarks at scale 1200 (benchmarks outer): clustered BEUs with and
   without a crossing delay, a small external file, few branch
   checkpoints, and every kind with a two-entry LSQ and with an
   eight-instruction in-flight bound. These are the dependence, store
   and release paths no preset reaches. *)
let off_preset_configs =
  let over cfg kvs = Result.get_ok (U.Config.override cfg kvs) in
  let braid = U.Config.braid_8wide in
  [
    over braid [ ("beu_cluster_size", "2"); ("inter_cluster_latency", "2") ];
    over braid [ ("beu_cluster_size", "4"); ("inter_cluster_latency", "0") ];
    over braid [ ("ext_regs", "2") ];
    over braid [ ("ext_regs", "4") ];
    over braid [ ("max_unresolved_branches", "2") ];
    over U.Config.ooo_8wide [ ("max_unresolved_branches", "2") ];
  ]
  @ List.concat_map
      (fun k ->
        let preset = U.Config.preset_of_kind k in
        [ over preset [ ("lsq_entries", "2") ]; over preset [ ("inflight", "8") ] ])
      U.Config.Core_kind.all

let off_preset_md5 = "911654324cf5218935e60fb75f29b22d"

let test_off_preset_digest () =
  Alcotest.(check string) "MD5 over every result field and counter" off_preset_md5
    (configs_digest stored off_preset_configs)

(* The same lines where a value becomes readable after its producer
   commits, on all 26 benchmarks at scale 1200 (benchmarks outer): one
   write port behind a one-value bypass under a small in-flight bound,
   and braid cores whose window is tiny or whose BEUs sit one to a
   cluster behind a long crossing delay. A machine that forgot a
   committed producer before its value settled would read it too early
   here. *)
let late_visibility_configs =
  let over cfg kvs = Result.get_ok (U.Config.override cfg kvs) in
  let narrow = [ ("rf_write_ports", "1"); ("bypass_per_cycle", "1"); ("inflight", "16") ] in
  [
    over U.Config.dep_steer_8wide narrow;
    over U.Config.ooo_8wide narrow;
    over U.Config.braid_8wide [ ("inflight", "4"); ("rf_write_ports", "1") ];
    over U.Config.braid_8wide
      [ ("beu_cluster_size", "1"); ("inter_cluster_latency", "40"); ("inflight", "8") ];
  ]

let late_visibility_md5 = "0a426eb9c70c1f576339c81c90ef64ff"

let test_late_visibility_digest () =
  Alcotest.(check string) "MD5 over every result field and counter"
    late_visibility_md5
    (configs_digest stored late_visibility_configs)

(* The same lines for the shapes of each kind's select, on all 26
   benchmarks at scale 1200 (benchmarks outer): an in-order queue that
   issues two a cycle from a short queue, two short dep-steer FIFOs, two
   narrow ooo schedulers, braid head windows of one and four entries, two
   one-FU BEUs and the whole-queue BEU, and cgooo's head window of one
   across two windows, one cluster and short windows. The shared FU
   budget cgooo's windows draw on, and each select's window and issue
   budget, show here and nowhere else. *)
let select_shape_configs =
  let over cfg kvs =
    Result.get_ok (U.Config.validate (Result.get_ok (U.Config.override cfg kvs)))
  in
  let braid = U.Config.braid_8wide and cgooo = U.Config.cgooo_8wide in
  [
    over U.Config.in_order_8wide [ ("fus_per_cluster", "2"); ("cluster_entries", "8") ];
    over U.Config.dep_steer_8wide [ ("clusters", "2"); ("cluster_entries", "4") ];
    over U.Config.ooo_8wide
      [
        ("clusters", "2");
        ("cluster_entries", "8");
        ("sched_window", "8");
        ("fus_per_cluster", "2");
      ];
    over braid [ ("sched_window", "1") ];
    over braid [ ("sched_window", "4") ];
    over braid [ ("clusters", "2"); ("fus_per_cluster", "1") ];
    over braid [ ("beu_out_of_order", "true") ];
    over cgooo [ ("block_windows", "2"); ("block_head_window", "1") ];
    over cgooo [ ("clusters", "1") ];
    over cgooo [ ("cluster_entries", "4") ];
  ]

let select_shape_md5 = "181fd640a46fd931a7197b3c545fa6f8"

let test_select_shape_digest () =
  Alcotest.(check string) "MD5 over every result field and counter" select_shape_md5
    (configs_digest stored select_shape_configs)

(* A one-shot run streams its trace through a window instead of storing
   it. Every number above must come out the same from streams at the
   smallest window each config allows ([Core.min_window]), where fetch
   refills the window every few hundred instructions, with release bits
   only for the kind that reads them, as a one-shot run makes them. The
   golden table
   (each whole result equal to the stored run's), all four counter
   digests, and the conformance battery's commit-stream rows on every
   kind with the invariant monitor armed. *)
let test_streamed_equals_stored () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun (bench, core, instrs, cycles) ->
      let p = Suite.prepare ctx ~scale:1200 (Braid_workload.Spec.find bench) in
      let cfg =
        match core with
        | In_order -> U.Config.in_order_8wide
        | Ooo -> U.Config.ooo_8wide
        | Braid -> U.Config.braid_8wide
        | Cgooo -> U.Config.cgooo_8wide
      in
      let r = U.Core.result (streamed p cfg) in
      let what = Printf.sprintf "%s on %s streamed" bench (core_name core) in
      Alcotest.(check (pair int int)) what (instrs, cycles)
        (r.U.Core.instructions, r.U.Core.cycles);
      Alcotest.(check bool) (what ^ ": the stored run's result") true
        (r = Suite.run ctx p cfg))
    golden;
  List.iter
    (fun (what, md5, digest) -> Alcotest.(check string) what md5 (digest streamed))
    [
      ("streamed counter identity digest", counter_md5, counter_digest);
      ( "streamed off-preset digest",
        off_preset_md5,
        fun run -> configs_digest run off_preset_configs );
      ( "streamed late-visibility digest",
        late_visibility_md5,
        fun run -> configs_digest run late_visibility_configs );
      ( "streamed select-shape digest",
        select_shape_md5,
        fun run -> configs_digest run select_shape_configs );
    ];
  List.iter
    (fun kind -> T_conformance.commit_stream_battery ~stream:true kind ())
    U.Config.Core_kind.all

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
    @ [
        Alcotest.test_case "memo keyed on content" `Slow test_memo_keyed_on_content;
        Alcotest.test_case "trace event digest" `Slow test_trace_digest;
        Alcotest.test_case "counter identity digest" `Slow test_counter_digest;
        Alcotest.test_case "off-preset counter digest" `Slow test_off_preset_digest;
        Alcotest.test_case "late-visibility counter digest" `Slow
          test_late_visibility_digest;
        Alcotest.test_case "select-shape counter digest" `Slow test_select_shape_digest;
        Alcotest.test_case "streamed runs equal stored runs" `Slow
          test_streamed_equals_stored;
      ] )

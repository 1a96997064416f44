module Spec = Braid_workload.Spec
module C = Braid_core
module U = Braid_uarch

type row_class = Int_row | Fp_row | Config_row
type row = { label : string; cls : row_class; values : float list }

type series = {
  s_title : string;
  columns : string list;
  rows : row list;
  averages : bool;
  decimals : int;
}

type metric = { m_label : string; value : float }

type result = {
  id : string;
  title : string;
  paper_expectation : string;
  series : series list;
  notes : string list;
  headline : metric list;
}

type cells = (Spec.profile * float array) list

type t = {
  id : string;
  title : string;
  paper_expectation : string;
  bench_job : Suite.ctx -> scale:int -> Spec.profile -> float array;
  assemble : Suite.ctx -> scale:int -> cells -> result;
}

let named name cfg = { cfg with U.Config.name }

(* Configuration variants go through the first-class override API —
   anonymous record-update literals on Config.t are deprecated in
   experiment code, so every variant stays inside the sweepable-field
   vocabulary `braidsim sweep` exposes. The field names are static, so a
   failure is a programming error, not an input error. *)
let variant cfg name kvs =
  match U.Config.override cfg kvs with
  | Ok c -> named name c
  | Error msg -> invalid_arg ("Experiments.variant: " ^ msg)

let ikv field v = (field, string_of_int v)
let is_fp (pr : Spec.profile) = pr.Spec.cls = Spec.Fp_bench
let metric m_label value = { m_label; value }

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let bench_row (pr : Spec.profile) values =
  { label = pr.Spec.name; cls = (if is_fp pr then Fp_row else Int_row); values }

(* A per-benchmark series over the first [List.length cols] payload values;
   jobs may carry extra trailing floats for notes/headlines. *)
let bench_series ~title ~cols (cells : cells) =
  let n = List.length cols in
  {
    s_title = title;
    columns = cols;
    rows =
      List.map
        (fun (pr, vs) -> bench_row pr (List.init n (Array.get vs)))
        cells;
    averages = true;
    decimals = 3;
  }

let avg_at (cells : cells) i = mean (List.map (fun (_, vs) -> vs.(i)) cells)

let overall_avg cols (cells : cells) col =
  match List.find_index (String.equal col) cols with
  | Some i -> avg_at cells i
  | None -> invalid_arg "overall_avg: unknown column"

(* The common shape: one table whose columns are exactly the job payload,
   headline metrics picked from those columns. *)
let std ~id ~title ~expect ~table_title ~cols ?notes ?headline bench_job =
  let headline_of cells =
    match headline with
    | Some picks ->
        List.map (fun (lbl, col) -> metric lbl (overall_avg cols cells col)) picks
    | None -> List.map (fun col -> metric col (overall_avg cols cells col)) cols
  in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job;
    assemble =
      (fun _ctx ~scale:_ cells ->
        {
          id;
          title;
          paper_expectation = expect;
          series = [ bench_series ~title:table_title ~cols cells ];
          notes = (match notes with Some f -> f cells | None -> []);
          headline = headline_of cells;
        });
  }

(* ---------------------------------------------------------------- *)
(* §1.1: value fanout and lifetime                                   *)
(* ---------------------------------------------------------------- *)

let fanout_lifetime =
  let cols = [ "used-once%"; "used<=2x%"; "unused%"; "life<=32%" ] in
  std ~id:"fanout-lifetime" ~title:"Value fanout and lifetime (paper §1.1)"
    ~expect:
      "~70% of values used once, ~90% used at most twice, ~4% unused; \
       ~80% of values live <=32 instructions"
    ~table_title:"Value fanout and lifetime (dynamic, conventional binaries)"
    ~cols
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let vs = C.Value_stats.of_trace (p.Suite.conv_trace ()) in
      [|
        C.Value_stats.fanout_exactly vs 1 *. 100.0;
        C.Value_stats.fanout_at_most vs 2 *. 100.0;
        C.Value_stats.unused_fraction vs *. 100.0;
        C.Value_stats.lifetime_at_most vs 32 *. 100.0;
      |])

(* ---------------------------------------------------------------- *)
(* Workload characterisation: dynamic instruction mix                *)
(* ---------------------------------------------------------------- *)

let instruction_mix =
  let cols = [ "loads%"; "stores%"; "branches%"; "fp%"; "int-alu%" ] in
  std ~id:"instruction-mix"
    ~title:"Workload characterisation: dynamic instruction mix of the 26 stand-ins"
    ~expect:
      "SPEC-like mixes: ~20-30% memory operations, ~10% branches on the \
       integer side, substantial FP compute on the floating-point side"
    ~table_title:"Dynamic instruction mix (%)" ~cols
    ~headline:[ ("loads%", "loads%"); ("branches%", "branches%"); ("fp%", "fp%") ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let trc = p.Suite.conv_trace () in
      let n = float_of_int (max 1 (Trace.length trc)) in
      let count f =
        100.0
        *. float_of_int
             (Array.fold_left
                (fun acc e -> if f e then acc + 1 else acc)
                0 trc.Trace.events)
        /. n
      in
      [|
        count (fun e -> e.Trace.is_load);
        count (fun e -> e.Trace.is_store);
        count Trace.branch_of;
        count (fun e -> Op.is_fp e.Trace.instr.Instr.op);
        count (fun (e : Trace.event) ->
            match e.Trace.instr.Instr.op with
            | Op.Ibin _ | Op.Ibini _ | Op.Movi _ | Op.Cmov _ -> true
            | _ -> false);
      |])

(* ---------------------------------------------------------------- *)
(* Tables 1-3: static braid statistics                               *)
(* ---------------------------------------------------------------- *)

let braid_summary ctx ~scale pr =
  let p = Suite.prepare ctx ~scale pr in
  C.Braid_stats.summarize
    (C.Braid_stats.of_program p.Suite.braid.C.Transform.program)

let table1 =
  let cols = [ "braids/block"; "excl-singles" ] in
  let id = "table1" in
  let title = "Table 1: braids per basic block" in
  let expect =
    "int 2.8 / fp 3.8 braids per block; 1.1 / 1.5 excluding single-instruction \
     braids; 20% of instructions are single-instruction braids, 56% of those \
     branches/nops"
  in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job =
      (fun ctx ~scale pr ->
        let s = braid_summary ctx ~scale pr in
        [|
          s.C.Braid_stats.braids_per_block;
          s.C.Braid_stats.braids_per_block_multi;
          s.C.Braid_stats.single_instr_fraction *. 100.0;
          s.C.Braid_stats.single_branch_nop_fraction *. 100.0;
        |]);
    assemble =
      (fun _ctx ~scale:_ cells ->
        let singles = avg_at cells 2 and branchy = avg_at cells 3 in
        {
          id;
          title;
          paper_expectation = expect;
          series =
            [ bench_series ~title:"Braids per basic block (static)" ~cols cells ];
          notes =
            [
              Printf.sprintf
                "single-instruction braids: %.1f%% of all instructions; %.1f%% \
                 of them are branches/jumps/nops"
                singles branchy;
            ];
          headline =
            [
              metric "braids/block" (overall_avg cols cells "braids/block");
              metric "excl-singles" (overall_avg cols cells "excl-singles");
              metric "single-instr%" singles;
              metric "single-branch%" branchy;
            ];
        });
  }

let table2 =
  let cols = [ "size"; "size*"; "width"; "width*" ] in
  std ~id:"table2"
    ~title:"Table 2: braid size and width (* = excluding single-instruction braids)"
    ~expect:"size 2.5 int / 3.6 fp (4.7 / 7.6 excl. singles); width ~1.1 for both"
    ~table_title:"Braid size and width (static)" ~cols
    ~headline:
      [ ("size", "size"); ("size-excl-singles", "size*"); ("width-excl-singles", "width*") ]
    (fun ctx ~scale pr ->
      let s = braid_summary ctx ~scale pr in
      [|
        s.C.Braid_stats.avg_size;
        s.C.Braid_stats.avg_size_multi;
        s.C.Braid_stats.avg_width;
        s.C.Braid_stats.avg_width_multi;
      |])

let table3 =
  let cols = [ "internals"; "int*"; "ext-in"; "in*"; "ext-out"; "out*" ] in
  std ~id:"table3"
    ~title:"Table 3: braid internals, external inputs and outputs (* = excl. singles)"
    ~expect:
      "internals 1.7 int / 3.0 fp (4.0 / 7.5 excl.); ext inputs 1.7 / 2.2; \
       ext outputs 0.7 / 0.8"
    ~table_title:"Braid dependencies (static)" ~cols
    ~headline:
      [ ("internals-excl", "int*"); ("ext-in-excl", "in*"); ("ext-out-excl", "out*") ]
    (fun ctx ~scale pr ->
      let s = braid_summary ctx ~scale pr in
      [|
        s.C.Braid_stats.avg_internals;
        s.C.Braid_stats.avg_internals_multi;
        s.C.Braid_stats.avg_ext_inputs;
        s.C.Braid_stats.avg_ext_inputs_multi;
        s.C.Braid_stats.avg_ext_outputs;
        s.C.Braid_stats.avg_ext_outputs_multi;
      |])

(* ---------------------------------------------------------------- *)
(* Fig 1: potential of wider issue (perfect front end)               *)
(* ---------------------------------------------------------------- *)

let fig1 =
  let cols = [ "8w/4w"; "16w/4w" ] in
  std ~id:"fig1"
    ~title:"Fig 1: potential performance of 8/16-wide over 4-wide OoO (perfect BP+caches)"
    ~expect:"average speedups 1.44x (8-wide) and 1.83x (16-wide)"
    ~table_title:"Speedup over 4-wide conventional OoO, perfect front end" ~cols
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let run w =
        let cfg =
          U.Config.perfect_frontend (U.Config.scale_width U.Config.ooo_8wide w)
        in
        Suite.run ctx p (named (Printf.sprintf "ooo-perfect-%dw" w) cfg)
      in
      let r4 = run 4 and r8 = run 8 and r16 = run 16 in
      [| U.Core.speedup r4 r8; U.Core.speedup r4 r16 |])

(* ---------------------------------------------------------------- *)
(* Fig 5: OoO sensitivity to register count                          *)
(* ---------------------------------------------------------------- *)

let fig5 =
  let counts = [ 8; 16; 32; 64; 256 ] in
  let cols = List.map string_of_int counts in
  std ~id:"fig5"
    ~title:"Fig 5: conventional OoO performance vs register count (normalised to 256)"
    ~expect:"32 registers lose ~8%, 16 registers lose ~21%"
    ~table_title:"OoO normalised performance vs registers" ~cols
    ~headline:[ ("regs-32", "32"); ("regs-16", "16") ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let run n =
        Suite.run ctx p
          (variant U.Config.ooo_8wide
             (Printf.sprintf "ooo-regs-%d" n)
             [ ikv "ext_regs" n ])
      in
      let base = run 256 in
      Array.of_list (List.map (fun n -> U.Core.speedup base (run n)) counts))

(* ---------------------------------------------------------------- *)
(* Fig 6: braid sensitivity to external register count               *)
(* ---------------------------------------------------------------- *)

let fig6 =
  let counts = [ 1; 2; 4; 8; 16; 32; 256 ] in
  let cols = List.map string_of_int counts in
  std ~id:"fig6"
    ~title:"Fig 6: braid performance vs external register count (normalised to 256)"
    ~expect:"flat until 4 external registers; 8 entries match 256"
    ~table_title:"Braid normalised performance vs external registers" ~cols
    ~headline:[ ("extregs-8", "8"); ("extregs-4", "4"); ("extregs-2", "2") ]
    (fun ctx ~scale pr ->
      let run n =
        let p =
          Suite.prepare ctx ~scale
            ~ext_usable:(min n C.Extalloc.usable_per_class) pr
        in
        Suite.run ctx p
          (variant U.Config.braid_8wide
             (Printf.sprintf "braid-extregs-%d" n)
             [ ikv "ext_regs" n ])
      in
      let base = run 256 in
      Array.of_list
        (List.map
           (fun n ->
             let r = run n in
             float_of_int base.U.Core.cycles /. float_of_int r.U.Core.cycles)
           counts))

(* ---------------------------------------------------------------- *)
(* Fig 7: external register file ports                               *)
(* ---------------------------------------------------------------- *)

let fig7 =
  let ports = [ (4, 2); (6, 3); (8, 4); (16, 8) ] in
  let cols = List.map (fun (r, w) -> Printf.sprintf "%dr%dw" r w) ports in
  std ~id:"fig7"
    ~title:"Fig 7: braid performance vs external RF ports (normalised to 16r/8w)"
    ~expect:"6r/3w within 0.5% of the full port count"
    ~table_title:"Braid normalised performance vs RF ports" ~cols
    ~headline:[ ("6r3w", "6r3w"); ("4r2w", "4r2w") ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let run (r, w) =
        Suite.run ctx p
          (variant U.Config.braid_8wide
             (Printf.sprintf "braid-ports-%d-%d" r w)
             [ ikv "rf_read_ports" r; ikv "rf_write_ports" w ])
      in
      let base = run (16, 8) in
      Array.of_list (List.map (fun pw -> U.Core.speedup base (run pw)) ports))

(* ---------------------------------------------------------------- *)
(* Fig 8: bypass paths                                               *)
(* ---------------------------------------------------------------- *)

let fig8 =
  let paths = [ 1; 2; 4; 8 ] in
  let cols = List.map string_of_int paths in
  std ~id:"fig8"
    ~title:"Fig 8: braid performance vs bypass paths per cycle (normalised to full bypass)"
    ~expect:"2 bypass values per cycle within 1% of a full network"
    ~table_title:"Braid normalised performance vs bypass paths" ~cols
    ~headline:[ ("bypass-2", "2"); ("bypass-1", "1") ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let run n =
        Suite.run ctx p
          (variant U.Config.braid_8wide
             (Printf.sprintf "braid-bypass-%d" n)
             [ ikv "bypass_per_cycle" n ])
      in
      let base =
        Suite.run ctx p
          (variant U.Config.braid_8wide "braid-bypass-full"
             [ ikv "bypass_per_cycle" 64 ])
      in
      Array.of_list (List.map (fun n -> U.Core.speedup base (run n)) paths))

(* ---------------------------------------------------------------- *)
(* Figs 9-12: execution-core parameters (normalised to 8-wide OoO)   *)
(* ---------------------------------------------------------------- *)

let braid_sweep ~id ~title ~expect ~cols ~configs =
  std ~id ~title ~expect ~table_title:title ~cols
    ~headline:(List.map (fun c -> ("cfg-" ^ c, c)) cols)
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let base = Suite.run ctx p U.Config.ooo_8wide in
      Array.of_list
        (List.map
           (fun cfg -> U.Core.speedup base (Suite.run ctx p cfg))
           configs))

let fig9 =
  let counts = [ 1; 2; 4; 8; 16 ] in
  braid_sweep ~id:"fig9"
    ~title:"Fig 9: braid performance vs number of BEUs (normalised to 8-wide OoO)"
    ~expect:"rising with BEU count: more ready braids than BEUs; 8 BEUs near OoO"
    ~cols:(List.map string_of_int counts)
    ~configs:
      (List.map
         (fun n ->
           variant U.Config.braid_8wide
             (Printf.sprintf "braid-beus-%d" n)
             [ ikv "clusters" n ])
         counts)

let fig10 =
  let sizes = [ 4; 8; 16; 32; 64 ] in
  braid_sweep ~id:"fig10"
    ~title:"Fig 10: braid performance vs FIFO queue entries (normalised to 8-wide OoO)"
    ~expect:"32 entries capture almost all performance (99% of braids are <=32 instructions)"
    ~cols:(List.map string_of_int sizes)
    ~configs:
      (List.map
         (fun n ->
           variant U.Config.braid_8wide
             (Printf.sprintf "braid-fifo-%d" n)
             [ ikv "cluster_entries" n ])
         sizes)

let fig11 =
  let sizes = [ 1; 2; 4; 8 ] in
  braid_sweep ~id:"fig11"
    ~title:"Fig 11: braid performance vs FIFO scheduling window (normalised to 8-wide OoO)"
    ~expect:"steep rise from 1 to 2, plateau beyond: ready instructions sit at the head"
    ~cols:(List.map string_of_int sizes)
    ~configs:
      (List.map
         (fun n ->
           variant U.Config.braid_8wide
             (Printf.sprintf "braid-window-%d" n)
             [ ikv "sched_window" n ])
         sizes)

let fig12 =
  let sizes = [ 1; 2; 4; 8 ] in
  braid_sweep ~id:"fig12"
    ~title:"Fig 12: braid performance vs window size = FUs per BEU (normalised to 8-wide OoO)"
    ~expect:"same trend as Fig 11: braid ILP is ~2, more FUs do not help"
    ~cols:(List.map string_of_int sizes)
    ~configs:
      (List.map
         (fun n ->
           variant U.Config.braid_8wide
             (Printf.sprintf "braid-winfu-%d" n)
             [ ikv "sched_window" n; ikv "fus_per_cluster" n ])
         sizes)

(* ---------------------------------------------------------------- *)
(* Fig 13: the four paradigms at 4/8/16-wide                         *)
(* ---------------------------------------------------------------- *)

let fig13 =
  let widths = [ 4; 8; 16 ] in
  let cols =
    List.concat_map
      (fun w ->
        List.map (fun k -> Printf.sprintf "%s-%d" k w) [ "io"; "dep"; "braid"; "ooo" ])
      widths
  in
  let id = "fig13" in
  let title =
    "Fig 13: in-order / dependence-steering / braid / OoO at 4, 8, 16-wide \
     (normalised to 8-wide OoO)"
  in
  let expect =
    "braid within ~9% of 8-wide OoO; significant gains remain at wider widths; \
     the braid-OoO gap closes as width grows"
  in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job =
      (fun ctx ~scale pr ->
        let p = Suite.prepare ctx ~scale pr in
        let base = Suite.run ctx p U.Config.ooo_8wide in
        Array.of_list
          (List.concat_map
             (fun w ->
               let scale_of cfg = U.Config.scale_width cfg w in
               let io = Suite.run ctx p (scale_of U.Config.in_order_8wide) in
               let dep = Suite.run ctx p (scale_of U.Config.dep_steer_8wide) in
               let braid = Suite.run ctx p (scale_of U.Config.braid_8wide) in
               let ooo = Suite.run ctx p (scale_of U.Config.ooo_8wide) in
               List.map (U.Core.speedup base) [ io; dep; braid; ooo ])
             widths));
    assemble =
      (fun _ctx ~scale:_ cells ->
        let avg c = overall_avg cols cells c in
        {
          id;
          title;
          paper_expectation = expect;
          series =
            [
              bench_series
                ~title:"Normalised performance, four paradigms x three widths"
                ~cols cells;
            ];
          notes = [];
          headline =
            [
              metric "braid8/ooo8" (avg "braid-8" /. avg "ooo-8");
              metric "braid4/ooo4" (avg "braid-4" /. avg "ooo-4");
              metric "braid16/ooo16" (avg "braid-16" /. avg "ooo-16");
              metric "io8/ooo8" (avg "io-8" /. avg "ooo-8");
              metric "dep8/ooo8" (avg "dep-8" /. avg "ooo-8");
            ];
        });
  }

(* ---------------------------------------------------------------- *)
(* Fig 14: equal functional-unit resources                           *)
(* ---------------------------------------------------------------- *)

let fig14 =
  let cols = [ "4beu-2fu"; "8beu-1fu" ] in
  std ~id:"fig14"
    ~title:"Fig 14: equal FU budget — 4 BEUx2FU vs 8 BEUx1FU (normalised to 8 BEUx2FU)"
    ~expect:"more BEUs with fewer FUs each beats fewer, wider BEUs"
    ~table_title:"Braid normalised performance at 8 total FUs" ~cols
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let base = Suite.run ctx p U.Config.braid_8wide in
      let a =
        Suite.run ctx p
          (variant U.Config.braid_8wide "braid-4x2"
             [ ikv "clusters" 4; ikv "fus_per_cluster" 2 ])
      in
      let b =
        Suite.run ctx p
          (variant U.Config.braid_8wide "braid-8x1"
             [ ikv "clusters" 8; ikv "fus_per_cluster" 1 ])
      in
      [| U.Core.speedup base a; U.Core.speedup base b |])

(* ---------------------------------------------------------------- *)
(* Ablations                                                          *)
(* ---------------------------------------------------------------- *)

(* A two-column "baseline vs variant" ablation whose headline is the
   average percentage gain of the variant. *)
let gain_ablation ~id ~title ~expect ~table_title ~variant_col ~note bench_job =
  let cols = [ "baseline"; variant_col ] in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job;
    assemble =
      (fun _ctx ~scale:_ cells ->
        let gain = (overall_avg cols cells variant_col -. 1.0) *. 100.0 in
        {
          id;
          title;
          paper_expectation = expect;
          series = [ bench_series ~title:table_title ~cols cells ];
          notes = [ Printf.sprintf "%s: %.2f%%" note gain ];
          headline = [ metric "gain%" gain ];
        });
  }

let pipeline_ablation =
  gain_ablation ~id:"pipeline-ablation"
    ~title:"§5.1 ablation: gain from the 4-stage-shorter braid pipeline (19 vs 23-cycle penalty)"
    ~expect:"the shorter pipeline is worth ~2.19% on average"
    ~table_title:"Braid speedup from the shorter pipeline (23-cycle baseline)"
    ~variant_col:"penalty-19" ~note:"average gain from shorter pipeline"
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let deep =
        Suite.run ctx p
          (variant U.Config.braid_8wide "braid-deep"
             [ ikv "misprediction_penalty" 23 ])
      in
      let short = Suite.run ctx p U.Config.braid_8wide in
      [| 1.0; U.Core.speedup deep short |])

let split_ablation =
  (* the internal register file has 8 entries, so thresholds above 8 are
     not encodable; sweep below it *)
  let thresholds = [ 2; 4; 6; 8 ] in
  let cols = List.map (fun thr -> Printf.sprintf "wset-%d" thr) thresholds in
  let id = "split-ablation" in
  let title =
    "Ablation: internal working-set threshold (braids split when internals exceed it)"
  in
  let expect = "8 internal registers suffice; splitting at 8 affects ~2% of braids" in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job =
      (fun ctx ~scale pr ->
        let runs =
          List.map
            (fun thr ->
              let p = Suite.prepare ctx ~scale ~max_internal:thr pr in
              (p, Suite.run ctx p U.Config.braid_8wide))
            thresholds
        in
        let p8, base = List.nth runs 3 (* threshold 8 *) in
        let split_frac =
          float_of_int p8.Suite.braid.C.Transform.splits_working_set
          /. float_of_int (max 1 p8.Suite.braid.C.Transform.braids)
        in
        Array.of_list
          (List.map (fun (_, r) -> U.Core.speedup base r) runs @ [ split_frac ]));
    assemble =
      (fun _ctx ~scale:_ cells ->
        let split_pct = 100.0 *. avg_at cells 4 in
        {
          id;
          title;
          paper_expectation = expect;
          series =
            [
              bench_series
                ~title:"Braid performance vs working-set threshold (normalised to 8)"
                ~cols cells;
            ];
          notes =
            [ Printf.sprintf "braids split at threshold 8: %.2f%% (average)" split_pct ];
          headline =
            [
              metric "split%@8" split_pct;
              metric "wset-4" (overall_avg cols cells "wset-4");
              metric "wset-2" (overall_avg cols cells "wset-2");
            ];
        });
  }

let spill_ablation =
  let budgets = [ 4; 8; 16; 28 ] in
  let cols =
    List.concat_map
      (fun b -> [ Printf.sprintf "conv@%d" b; Printf.sprintf "braid@%d" b ])
      budgets
  in
  std ~id:"spill-ablation"
    ~title:
      "§5.2 ablation: static spill instructions, conventional vs braid compilation, \
       per register budget"
    ~expect:
      "braid register management reduces spill/fill code (fewer external values \
       competing for registers)"
    ~table_title:"Static spill instructions (loads+stores)" ~cols
    ~headline:[ ("conv@8", "conv@8"); ("braid@8", "braid@8") ]
    (fun _ctx ~scale pr ->
      Array.of_list
        (List.concat_map
           (fun budget ->
             let virtual_ir, _ = Spec.generate pr ~seed:1 ~scale in
             let conv = C.Extalloc.allocate ~usable:budget virtual_ir in
             let braid = C.Transform.run ~ext_usable:budget virtual_ir in
             [
               float_of_int
                 (conv.C.Extalloc.spill_loads + conv.C.Extalloc.spill_stores);
               float_of_int
                 (braid.C.Transform.alloc.C.Extalloc.spill_loads
                 + braid.C.Transform.alloc.C.Extalloc.spill_stores);
             ])
           budgets))

(* ---------------------------------------------------------------- *)
(* §5.1: complexity and switching-activity comparison                *)
(* ---------------------------------------------------------------- *)

let complexity_table =
  let static_configs =
    [ U.Config.in_order_8wide; U.Config.dep_steer_8wide; U.Config.braid_8wide;
      U.Config.ooo_8wide ]
  in
  let activity_cols =
    [ "ext RF acc/instr"; "int RF acc/instr"; "bypass/instr"; "wakeup work/instr" ]
  in
  let id = "complexity-table" in
  let title = "§5.1: static complexity indices and per-instruction switching activity" in
  let expect =
    "braid avoids large associative structures: tiny external RF, FIFO \
     schedulers without tag broadcast, 1-level bypass — complexity close to \
     in-order, far from out-of-order"
  in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job =
      (fun ctx ~scale pr ->
        let p = Suite.prepare ctx ~scale pr in
        let fields (e : U.Complexity.energy_proxy) =
          [
            e.U.Complexity.ext_rf_accesses_per_instr;
            e.U.Complexity.int_rf_accesses_per_instr;
            e.U.Complexity.bypass_values_per_instr;
            e.U.Complexity.broadcast_work_per_instr;
          ]
        in
        let ooo =
          U.Complexity.energy_of_run U.Config.ooo_8wide
            (Suite.run ctx p U.Config.ooo_8wide)
        in
        let braid =
          U.Complexity.energy_of_run U.Config.braid_8wide
            (Suite.run ctx p U.Config.braid_8wide)
        in
        Array.of_list (fields ooo @ fields braid));
    assemble =
      (fun _ctx ~scale:_ cells ->
        let static_series =
          {
            s_title = "Static area/complexity indices";
            columns =
              [ "RF area"; "scheduler"; "bypass"; "total"; "rename ports"; "wakeup/result" ];
            rows =
              List.map
                (fun cfg ->
                  let c = U.Complexity.of_config cfg in
                  {
                    label = cfg.U.Config.name;
                    cls = Config_row;
                    values =
                      [
                        c.U.Complexity.rf_area;
                        c.U.Complexity.scheduler_area;
                        c.U.Complexity.bypass_area;
                        c.U.Complexity.total;
                        c.U.Complexity.rename_ports;
                        c.U.Complexity.wakeup_broadcast_per_result;
                      ];
                  })
                static_configs;
            averages = false;
            decimals = 0;
          }
        in
        let activity_row label offset =
          {
            label;
            cls = Config_row;
            values = List.init 4 (fun i -> avg_at cells (offset + i));
          }
        in
        let activity_series =
          {
            s_title = "Dynamic activity (suite average)";
            columns = activity_cols;
            rows = [ activity_row "ooo-8" 0; activity_row "braid-8" 4 ];
            averages = false;
            decimals = 2;
          }
        in
        let ooo_c = U.Complexity.of_config U.Config.ooo_8wide in
        let braid_c = U.Complexity.of_config U.Config.braid_8wide in
        let io_c = U.Complexity.of_config U.Config.in_order_8wide in
        {
          id;
          title;
          paper_expectation = expect;
          series = [ static_series; activity_series ];
          notes = [];
          headline =
            [
              metric "ooo/braid-total" (U.Complexity.relative ooo_c braid_c);
              metric "braid/inorder-total" (U.Complexity.relative braid_c io_c);
            ];
        });
  }

(* ---------------------------------------------------------------- *)
(* §5.1: out-of-order scheduling inside the BEU                      *)
(* ---------------------------------------------------------------- *)

let beu_ooo_ablation =
  gain_ablation ~id:"beu-ooo-ablation"
    ~title:"§5.1 ablation: out-of-order selection inside each BEU (vs 2-entry FIFO window)"
    ~expect:
      "considered and rejected: braids are narrow, so an out-of-order BEU \
       scheduler buys almost nothing for its complexity"
    ~table_title:"Braid speedup from an OoO scheduler in the BEU"
    ~variant_col:"ooo-in-beu" ~note:"average gain"
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let base = Suite.run ctx p U.Config.braid_8wide in
      let oooed =
        Suite.run ctx p
          (variant U.Config.braid_8wide "braid-ooo-beu"
             [ ("beu_out_of_order", "true") ])
      in
      [| 1.0; U.Core.speedup base oooed |])

(* ---------------------------------------------------------------- *)
(* §5.2: clustering BEUs                                             *)
(* ---------------------------------------------------------------- *)

let clustering_ablation =
  let variants =
    [ ("flat", 0, 0); ("2x4+2cyc", 4, 2); ("4x2+2cyc", 2, 2); ("2x4+4cyc", 4, 4) ]
  in
  let cols = List.map (fun (n, _, _) -> n) variants in
  std ~id:"clustering-ablation"
    ~title:"§5.2: clustered BEUs — inter-cluster values pay extra latency"
    ~expect:
      "clustering is orthogonal: fast intra-cluster communication preserves \
       most performance while easing wiring"
    ~table_title:"Braid performance under BEU clustering (normalised to flat)" ~cols
    ~headline:[ ("2x4+2cyc", "2x4+2cyc"); ("2x4+4cyc", "2x4+4cyc") ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let base = Suite.run ctx p U.Config.braid_8wide in
      Array.of_list
        (List.map
           (fun (n, size, lat) ->
             let r =
               Suite.run ctx p
                 (variant U.Config.braid_8wide ("braid-clu-" ^ n)
                    [ ikv "beu_cluster_size" size; ikv "inter_cluster_latency" lat ])
             in
             U.Core.speedup base r)
           variants))

(* ---------------------------------------------------------------- *)
(* Binary translation vs braid-aware compilation (§3.1 methodology)  *)
(* ---------------------------------------------------------------- *)

let binary_translation =
  let cols = [ "compiled"; "translated" ] in
  std ~id:"binary-translation"
    ~title:
      "Methodology ablation: braid-aware compilation vs binary translation of a \
       preexisting binary (both normalised to 8-wide OoO)"
    ~expect:
      "the paper braided preexisting Alpha binaries and notes a braid-aware \
       compiler would do better (more internal values, no translation \
       artifacts)"
    ~table_title:"Braid performance: compiled vs translated binary" ~cols
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let base = Suite.run ctx p U.Config.ooo_8wide in
      let compiled = Suite.run ctx p U.Config.braid_8wide in
      (* braid the already-allocated conventional binary, as the paper's
         profiling + binary-translation tools did *)
      let translated_prog =
        (C.Transform.run_binary p.Suite.conventional.C.Extalloc.program)
          .C.Transform.program
      in
      let out =
        Emulator.run ~max_steps:(50 * scale) ~init_mem:p.Suite.init_mem
          translated_prog
      in
      let translated =
        U.Core.result (U.Core.run ~warm_data:p.Suite.warm_data
          (named "braid-translated" U.Config.braid_8wide)
          (Option.get out.Emulator.trace))
      in
      [| U.Core.speedup base compiled; U.Core.speedup base translated |])

(* ---------------------------------------------------------------- *)
(* §3.4: checkpoints — braid checkpoints are small, so equal storage *)
(* buys more of them                                                 *)
(* ---------------------------------------------------------------- *)

let checkpoint_ablation =
  let counts = [ 1; 2; 4; 8; 16 ] in
  let cols =
    List.concat_map
      (fun n -> [ Printf.sprintf "ooo@%d" n; Printf.sprintf "braid@%d" n ])
      counts
  in
  (* equal checkpoint storage: a conventional checkpoint snapshots a
     256-entry map, a braid checkpoint the 8-entry external file and no
     internal state (§3.4) — call it 8x more checkpoints per byte *)
  let note _cells =
    [
      "equal-storage reading: compare ooo@2 against braid@16 — a braid \
       checkpoint carries ~1/8 the state (8-entry external file, no internal \
       values), so the same budget buys 8x more checkpoints.";
    ]
  in
  std ~id:"checkpoint-ablation"
    ~title:"§3.4 ablation: performance vs checkpoint count (unresolved branches in flight)"
    ~expect:
      "checkpoints require less state in the braid machine: internal values \
       are dead at braid boundaries and never checkpointed"
    ~table_title:
      "Performance vs checkpoint count (each normalised to its own unlimited machine)"
    ~cols ~notes:note
    ~headline:[ ("ooo@2", "ooo@2"); ("braid@2", "braid@2"); ("braid@16", "braid@16") ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let ooo_base = Suite.run ctx p U.Config.ooo_8wide in
      let braid_base = Suite.run ctx p U.Config.braid_8wide in
      Array.of_list
        (List.concat_map
           (fun n ->
             let ooo =
               Suite.run ctx p
                 (variant U.Config.ooo_8wide
                    (Printf.sprintf "ooo-ckpt-%d" n)
                    [ ikv "max_unresolved_branches" n ])
             in
             let braid =
               Suite.run ctx p
                 (variant U.Config.braid_8wide
                    (Printf.sprintf "braid-ckpt-%d" n)
                    [ ikv "max_unresolved_branches" n ])
             in
             [ U.Core.speedup ooo_base ooo; U.Core.speedup braid_base braid ])
           counts))

(* ---------------------------------------------------------------- *)
(* Predictor ablation: Table 4's perceptron vs a gshare baseline     *)
(* ---------------------------------------------------------------- *)

let predictor_ablation =
  let cols = [ "gshare-perf"; "gshare-mpki"; "perceptron-mpki" ] in
  std ~id:"predictor-ablation"
    ~title:"Predictor ablation: perceptron (Table 4) vs gshare on the braid machine"
    ~expect:
      "the aggressive front end matters: the perceptron's long history should \
       beat a gshare baseline"
    ~table_title:"Gshare performance relative to perceptron, and MPKI" ~cols
    ~headline:
      [
        ("gshare-relative", "gshare-perf");
        ("gshare-mpki", "gshare-mpki");
        ("perceptron-mpki", "perceptron-mpki");
      ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let perceptron = Suite.run ctx p U.Config.braid_8wide in
      let gshare =
        Suite.run ctx p
          (variant U.Config.braid_8wide "braid-gshare"
             [ ("predictor", "gshare") ])
      in
      let mpki (r : U.Core.result) =
        1000.0 *. float_of_int r.U.Core.branch_mispredicts
        /. float_of_int r.U.Core.instructions
      in
      [| U.Core.speedup perceptron gshare; mpki gshare; mpki perceptron |])

(* ---------------------------------------------------------------- *)
(* Static vs dynamic braid statistics                                *)
(* ---------------------------------------------------------------- *)

let dynamic_braids =
  let cols = [ "static-b/blk"; "dyn-b/blk"; "static-size"; "dyn-size"; "dyn-single%" ] in
  std ~id:"dynamic-braids"
    ~title:"Static vs execution-weighted braid statistics"
    ~expect:
      "hot inner blocks dominate execution, so dynamic braids are slightly \
       larger and block occupancy higher than the static averages of Tables 1-2"
    ~table_title:"Braid statistics, static and dynamic" ~cols
    ~headline:[ ("dyn-braids/block", "dyn-b/blk"); ("dyn-size", "dyn-size") ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let s =
        C.Braid_stats.summarize
          (C.Braid_stats.of_program p.Suite.braid.C.Transform.program)
      in
      let d = C.Braid_stats.dynamic_of_trace (p.Suite.braid_trace ()) in
      [|
        s.C.Braid_stats.braids_per_block;
        d.C.Braid_stats.dyn_braids_per_block;
        s.C.Braid_stats.avg_size;
        d.C.Braid_stats.dyn_avg_size;
        d.C.Braid_stats.dyn_single_fraction *. 100.0;
      |])

(* ---------------------------------------------------------------- *)
(* Front-end fidelity: wrong-path fetch pollution and a finite BTB    *)
(* ---------------------------------------------------------------- *)

let frontend_ablation =
  let cols = [ "baseline"; "wrong-path"; "btb-512"; "btb-64" ] in
  std ~id:"frontend-ablation"
    ~title:
      "Front-end fidelity ablation: wrong-path I-cache pollution and finite BTBs \
       (braid machine, normalised to the default front end)"
    ~expect:
      "the default model treats wrong-path work as a pure bubble and targets \
       as perfect; these options bound how much that flatters the results"
    ~table_title:"Braid performance under front-end fidelity options" ~cols
    ~headline:
      [ ("wrong-path", "wrong-path"); ("btb-512", "btb-512"); ("btb-64", "btb-64") ]
    (fun ctx ~scale pr ->
      let p = Suite.prepare ctx ~scale pr in
      let base = Suite.run ctx p U.Config.braid_8wide in
      let run name kvs =
        Suite.run ctx p (variant U.Config.braid_8wide name kvs)
      in
      let wp = run "braid-wrongpath" [ ("model_wrong_path_fetch", "true") ] in
      let btb n = run (Printf.sprintf "braid-btb%d" n) [ ikv "btb_entries" n ] in
      [|
        1.0;
        U.Core.speedup base wp;
        U.Core.speedup base (btb 512);
        U.Core.speedup base (btb 64);
      |])

(* ---------------------------------------------------------------- *)
(* Seed robustness: the headline result across workload seeds        *)
(* ---------------------------------------------------------------- *)

let seed_robustness =
  let seeds = [ 1; 2; 3 ] in
  let cols = List.map (fun s -> Printf.sprintf "seed-%d" s) seeds in
  let id = "seed-robustness" in
  let title =
    "Robustness: braid/OoO performance ratio across three workload-generation seeds"
  in
  let expect =
    "the headline ratio should be a property of the workload shapes, not \
     of one particular random instance"
  in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job =
      (fun ctx ~scale pr ->
        Array.of_list
          (List.map
             (fun seed ->
               let p = Suite.prepare ctx ~seed ~scale pr in
               let ooo = Suite.run ctx p U.Config.ooo_8wide in
               let braid = Suite.run ctx p U.Config.braid_8wide in
               U.Core.speedup ooo braid)
             seeds));
    assemble =
      (fun _ctx ~scale:_ cells ->
        let per_seed = List.map (fun c -> overall_avg cols cells c) cols in
        let spread =
          List.fold_left max 0.0 per_seed -. List.fold_left min 2.0 per_seed
        in
        {
          id;
          title;
          paper_expectation = expect;
          series =
            [ bench_series ~title:"braid-8 relative to ooo-8, per seed" ~cols cells ];
          notes =
            [ Printf.sprintf "spread of the suite average across seeds: %.3f" spread ];
          headline =
            List.map2 (fun c v -> metric c v) cols per_seed
            @ [ metric "spread" spread ];
        });
  }

let all : t list =
  [
    fanout_lifetime;
    instruction_mix;
    table1;
    table2;
    table3;
    fig1;
    fig5;
    fig6;
    fig7;
    fig8;
    fig9;
    fig10;
    fig11;
    fig12;
    fig13;
    fig14;
    pipeline_ablation;
    split_ablation;
    spill_ablation;
    complexity_table;
    beu_ooo_ablation;
    clustering_ablation;
    binary_translation;
    checkpoint_ablation;
    predictor_ablation;
    dynamic_braids;
    frontend_ablation;
    seed_robustness;
  ]

let find id =
  match List.find_opt (fun e -> String.equal e.id id) all with
  | Some e -> e
  | None -> raise Not_found

let run ctx ~scale e =
  e.assemble ctx ~scale
    (List.map (fun pr -> (pr, e.bench_job ctx ~scale pr)) Spec.all)

(* --- observability counters (opt-in; braidsim experiment --counters) --- *)

type counters = (string * (string * U.Core.counter) list) list

let counters_report ctx ~scale =
  List.map
    (fun (profile : Spec.profile) ->
      let p = Suite.prepare ctx ~scale profile in
      let cfg = U.Config.braid_8wide in
      let core = U.Core.run ~warm_data:p.Suite.warm_data cfg (Suite.trace p cfg) in
      (profile.Spec.name, U.Core.counters core))
    Spec.all

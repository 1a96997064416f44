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
  bench_job : Suite.ctx -> Suite.prepared -> float array;
  assemble : cells -> series list * string list * metric list;
}

(* Configuration variants go through the first-class override API —
   anonymous record-update literals on Config.t are deprecated in
   experiment code, so every variant stays inside the sweepable-field
   vocabulary `braidsim sweep` exposes. The field names are static, so a
   failure is a programming error, not an input error. A variant keeps its
   preset's name, which no output prints for it. *)
let variant cfg kvs =
  match U.Config.override cfg kvs with
  | Ok c -> c
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

(* The evaluation's one method: each configuration's speedup over [base],
   both simulated on the same prepared benchmark. *)
let speedups ~base configs ctx p =
  let b = Suite.run ctx p base in
  Array.of_list
    (List.map (fun cfg -> U.Core.speedup b (Suite.run ctx p cfg)) configs)

(* The common shape: one table whose columns are exactly the job payload,
   headline metrics picked from those columns (by default all of them). *)
let std ~id ~title ~expect ~table_title ~cols ?(notes = []) ?headline bench_job =
  let picks = Option.value headline ~default:(List.map (fun c -> (c, c)) cols) in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job;
    assemble =
      (fun cells ->
        ( [ bench_series ~title:table_title ~cols cells ],
          notes,
          List.map (fun (lbl, col) -> metric lbl (overall_avg cols cells col)) picks ));
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
    (fun _ctx p ->
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
    (fun _ctx p ->
      let trc = p.Suite.conv_trace () in
      let n = float_of_int (max 1 (Trace.length trc)) in
      let count f =
        let c = ref 0 in
        for u = 0 to Trace.length trc - 1 do
          if f (Trace.static trc u) then incr c
        done;
        100.0 *. float_of_int !c /. n
      in
      [|
        count (fun e -> e.Trace.is_load);
        count (fun e -> e.Trace.is_store);
        count Trace.branch_of;
        count (fun e -> Op.is_fp e.Trace.instr.Instr.op);
        count (fun (e : Trace.static) ->
            match e.Trace.instr.Instr.op with
            | Op.Ibin _ | Op.Ibini _ | Op.Movi _ | Op.Cmov _ -> true
            | _ -> false);
      |])

(* ---------------------------------------------------------------- *)
(* Tables 1-3: static braid statistics                               *)
(* ---------------------------------------------------------------- *)

let braid_summary (p : Suite.prepared) =
  C.Braid_stats.summarize
    (C.Braid_stats.of_program p.Suite.braid.C.Transform.program)

let table1 =
  let cols = [ "braids/block"; "excl-singles" ] in
  {
    id = "table1";
    title = "Table 1: braids per basic block";
    paper_expectation =
      "int 2.8 / fp 3.8 braids per block; 1.1 / 1.5 excluding single-instruction \
       braids; 20% of instructions are single-instruction braids, 56% of those \
       branches/nops";
    bench_job =
      (fun _ctx p ->
        let s = braid_summary p in
        [|
          s.C.Braid_stats.braids_per_block;
          s.C.Braid_stats.braids_per_block_multi;
          s.C.Braid_stats.single_instr_fraction *. 100.0;
          s.C.Braid_stats.single_branch_nop_fraction *. 100.0;
        |]);
    assemble =
      (fun cells ->
        let singles = avg_at cells 2 and branchy = avg_at cells 3 in
        ( [ bench_series ~title:"Braids per basic block (static)" ~cols cells ],
          [
            Printf.sprintf
              "single-instruction braids: %.1f%% of all instructions; %.1f%% \
               of them are branches/jumps/nops"
              singles branchy;
          ],
          [
            metric "braids/block" (overall_avg cols cells "braids/block");
            metric "excl-singles" (overall_avg cols cells "excl-singles");
            metric "single-instr%" singles;
            metric "single-branch%" branchy;
          ] ));
  }

let table2 =
  let cols = [ "size"; "size*"; "width"; "width*" ] in
  std ~id:"table2"
    ~title:"Table 2: braid size and width (* = excluding single-instruction braids)"
    ~expect:"size 2.5 int / 3.6 fp (4.7 / 7.6 excl. singles); width ~1.1 for both"
    ~table_title:"Braid size and width (static)" ~cols
    ~headline:
      [ ("size", "size"); ("size-excl-singles", "size*"); ("width-excl-singles", "width*") ]
    (fun _ctx p ->
      let s = braid_summary p in
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
    (fun _ctx p ->
      let s = braid_summary p in
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
  let perfect w =
    U.Config.perfect_frontend (U.Config.scale_width U.Config.ooo_8wide w)
  in
  std ~id:"fig1"
    ~title:"Fig 1: potential performance of 8/16-wide over 4-wide OoO (perfect BP+caches)"
    ~expect:"average speedups 1.44x (8-wide) and 1.83x (16-wide)"
    ~table_title:"Speedup over 4-wide conventional OoO, perfect front end"
    ~cols:[ "8w/4w"; "16w/4w" ]
    (speedups ~base:(perfect 4) [ perfect 8; perfect 16 ])

(* ---------------------------------------------------------------- *)
(* Fig 5: OoO sensitivity to register count                          *)
(* ---------------------------------------------------------------- *)

let fig5 =
  let counts = [ 8; 16; 32; 64; 256 ] in
  let regs n = variant U.Config.ooo_8wide [ ikv "ext_regs" n ] in
  std ~id:"fig5"
    ~title:"Fig 5: conventional OoO performance vs register count (normalised to 256)"
    ~expect:"32 registers lose ~8%, 16 registers lose ~21%"
    ~table_title:"OoO normalised performance vs registers"
    ~cols:(List.map string_of_int counts)
    ~headline:[ ("regs-32", "32"); ("regs-16", "16") ]
    (speedups ~base:(regs 256) (List.map regs counts))

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
    (fun ctx p ->
      (* each register budget compiles a binary of its own *)
      let run n =
        let p =
          Suite.prepare ctx ~scale:p.Suite.scale
            ~ext_usable:(min n C.Extalloc.usable_per_class) p.Suite.profile
        in
        Suite.run ctx p (variant U.Config.braid_8wide [ ikv "ext_regs" n ])
      in
      let base = run 256 in
      Array.of_list (List.map (fun n -> U.Core.speedup base (run n)) counts))

(* ---------------------------------------------------------------- *)
(* Fig 7: external register file ports                               *)
(* ---------------------------------------------------------------- *)

let fig7 =
  let ports = [ (4, 2); (6, 3); (8, 4); (16, 8) ] in
  let with_ports (r, w) =
    variant U.Config.braid_8wide [ ikv "rf_read_ports" r; ikv "rf_write_ports" w ]
  in
  std ~id:"fig7"
    ~title:"Fig 7: braid performance vs external RF ports (normalised to 16r/8w)"
    ~expect:"6r/3w within 0.5% of the full port count"
    ~table_title:"Braid normalised performance vs RF ports"
    ~cols:(List.map (fun (r, w) -> Printf.sprintf "%dr%dw" r w) ports)
    ~headline:[ ("6r3w", "6r3w"); ("4r2w", "4r2w") ]
    (speedups ~base:(with_ports (16, 8)) (List.map with_ports ports))

(* ---------------------------------------------------------------- *)
(* Fig 8: bypass paths                                               *)
(* ---------------------------------------------------------------- *)

let fig8 =
  let paths = [ 1; 2; 4; 8 ] in
  let bypass n = variant U.Config.braid_8wide [ ikv "bypass_per_cycle" n ] in
  std ~id:"fig8"
    ~title:"Fig 8: braid performance vs bypass paths per cycle (normalised to full bypass)"
    ~expect:"2 bypass values per cycle within 1% of a full network"
    ~table_title:"Braid normalised performance vs bypass paths"
    ~cols:(List.map string_of_int paths)
    ~headline:[ ("bypass-2", "2"); ("bypass-1", "1") ]
    (speedups ~base:(bypass 64) (List.map bypass paths))

(* ---------------------------------------------------------------- *)
(* Figs 9-12: execution-core parameters (normalised to 8-wide OoO)   *)
(* ---------------------------------------------------------------- *)

(* Each figure sets the braid machine's integer [fields] to every value in
   turn; its headline lists every column. *)
let exec_core_fig ~id ~title ~expect ~fields values =
  let cols = List.map string_of_int values in
  std ~id ~title ~expect ~table_title:title ~cols
    ~headline:(List.map (fun c -> ("cfg-" ^ c, c)) cols)
    (speedups ~base:U.Config.ooo_8wide
       (List.map
          (fun n -> variant U.Config.braid_8wide (List.map (fun f -> ikv f n) fields))
          values))

let fig9 =
  exec_core_fig ~id:"fig9"
    ~title:"Fig 9: braid performance vs number of BEUs (normalised to 8-wide OoO)"
    ~expect:"rising with BEU count: more ready braids than BEUs; 8 BEUs near OoO"
    ~fields:[ "clusters" ] [ 1; 2; 4; 8; 16 ]

let fig10 =
  exec_core_fig ~id:"fig10"
    ~title:"Fig 10: braid performance vs FIFO queue entries (normalised to 8-wide OoO)"
    ~expect:"32 entries capture almost all performance (99% of braids are <=32 instructions)"
    ~fields:[ "cluster_entries" ] [ 4; 8; 16; 32; 64 ]

let fig11 =
  exec_core_fig ~id:"fig11"
    ~title:"Fig 11: braid performance vs FIFO scheduling window (normalised to 8-wide OoO)"
    ~expect:"steep rise from 1 to 2, plateau beyond: ready instructions sit at the head"
    ~fields:[ "sched_window" ] [ 1; 2; 4; 8 ]

let fig12 =
  exec_core_fig ~id:"fig12"
    ~title:"Fig 12: braid performance vs window size = FUs per BEU (normalised to 8-wide OoO)"
    ~expect:"same trend as Fig 11: braid ILP is ~2, more FUs do not help"
    ~fields:[ "sched_window"; "fus_per_cluster" ] [ 1; 2; 4; 8 ]

(* ---------------------------------------------------------------- *)
(* Fig 13: the four paradigms at 4/8/16-wide                         *)
(* ---------------------------------------------------------------- *)

let fig13 =
  let widths = [ 4; 8; 16 ] in
  let machines =
    [
      ("io", U.Config.in_order_8wide);
      ("dep", U.Config.dep_steer_8wide);
      ("braid", U.Config.braid_8wide);
      ("ooo", U.Config.ooo_8wide);
    ]
  in
  let each_width f = List.concat_map (fun w -> List.map (f w) machines) widths in
  let cols = each_width (fun w (k, _) -> Printf.sprintf "%s-%d" k w) in
  {
    id = "fig13";
    title =
      "Fig 13: in-order / dependence-steering / braid / OoO at 4, 8, 16-wide \
       (normalised to 8-wide OoO)";
    paper_expectation =
      "braid within ~9% of 8-wide OoO; significant gains remain at wider widths; \
       the braid-OoO gap closes as width grows";
    bench_job =
      speedups ~base:U.Config.ooo_8wide
        (each_width (fun w (_, cfg) -> U.Config.scale_width cfg w));
    assemble =
      (fun cells ->
        let avg c = overall_avg cols cells c in
        ( [
            bench_series ~title:"Normalised performance, four paradigms x three widths"
              ~cols cells;
          ],
          [],
          [
            metric "braid8/ooo8" (avg "braid-8" /. avg "ooo-8");
            metric "braid4/ooo4" (avg "braid-4" /. avg "ooo-4");
            metric "braid16/ooo16" (avg "braid-16" /. avg "ooo-16");
            metric "io8/ooo8" (avg "io-8" /. avg "ooo-8");
            metric "dep8/ooo8" (avg "dep-8" /. avg "ooo-8");
          ] ));
  }

(* ---------------------------------------------------------------- *)
(* Fig 14: equal functional-unit resources                           *)
(* ---------------------------------------------------------------- *)

let fig14 =
  let beus n fus =
    variant U.Config.braid_8wide [ ikv "clusters" n; ikv "fus_per_cluster" fus ]
  in
  std ~id:"fig14"
    ~title:"Fig 14: equal FU budget — 4 BEUx2FU vs 8 BEUx1FU (normalised to 8 BEUx2FU)"
    ~expect:"more BEUs with fewer FUs each beats fewer, wider BEUs"
    ~table_title:"Braid normalised performance at 8 total FUs"
    ~cols:[ "4beu-2fu"; "8beu-1fu" ]
    (speedups ~base:U.Config.braid_8wide [ beus 4 2; beus 8 1 ])

(* ---------------------------------------------------------------- *)
(* Ablations                                                          *)
(* ---------------------------------------------------------------- *)

(* A two-column "baseline vs variant" ablation, both normalised to [base],
   whose headline is the average percentage gain of the variant [cfg]. *)
let gain_ablation ~id ~title ~expect ~table_title ~variant_col ~note ~base cfg =
  let cols = [ "baseline"; variant_col ] in
  {
    id;
    title;
    paper_expectation = expect;
    bench_job = speedups ~base [ base; cfg ];
    assemble =
      (fun cells ->
        let gain = (overall_avg cols cells variant_col -. 1.0) *. 100.0 in
        ( [ bench_series ~title:table_title ~cols cells ],
          [ Printf.sprintf "%s: %.2f%%" note gain ],
          [ metric "gain%" gain ] ));
  }

let pipeline_ablation =
  gain_ablation ~id:"pipeline-ablation"
    ~title:"§5.1 ablation: gain from the 4-stage-shorter braid pipeline (19 vs 23-cycle penalty)"
    ~expect:"the shorter pipeline is worth ~2.19% on average"
    ~table_title:"Braid speedup from the shorter pipeline (23-cycle baseline)"
    ~variant_col:"penalty-19" ~note:"average gain from shorter pipeline"
    ~base:(variant U.Config.braid_8wide [ ikv "misprediction_penalty" 23 ])
    U.Config.braid_8wide

let split_ablation =
  (* the internal register file has 8 entries, so thresholds above 8 are
     not encodable; sweep below it *)
  let thresholds = [ 2; 4; 6; 8 ] in
  let cols = List.map (fun thr -> Printf.sprintf "wset-%d" thr) thresholds in
  {
    id = "split-ablation";
    title =
      "Ablation: internal working-set threshold (braids split when internals exceed it)";
    paper_expectation =
      "8 internal registers suffice; splitting at 8 affects ~2% of braids";
    bench_job =
      (fun ctx p ->
        let runs =
          List.map
            (fun thr ->
              let p =
                Suite.prepare ctx ~scale:p.Suite.scale ~max_internal:thr
                  p.Suite.profile
              in
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
      (fun cells ->
        let split_pct = 100.0 *. avg_at cells 4 in
        ( [
            bench_series
              ~title:"Braid performance vs working-set threshold (normalised to 8)"
              ~cols cells;
          ],
          [ Printf.sprintf "braids split at threshold 8: %.2f%% (average)" split_pct ],
          [
            metric "split%@8" split_pct;
            metric "wset-4" (overall_avg cols cells "wset-4");
            metric "wset-2" (overall_avg cols cells "wset-2");
          ] ));
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
    (fun _ctx p ->
      Array.of_list
        (List.concat_map
           (fun budget ->
             let conv = C.Extalloc.allocate ~usable:budget p.Suite.virtual_ir in
             let braid = C.Transform.run ~ext_usable:budget p.Suite.virtual_ir in
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
  {
    id = "complexity-table";
    title = "§5.1: static complexity indices and per-instruction switching activity";
    paper_expectation =
      "braid avoids large associative structures: tiny external RF, FIFO \
       schedulers without tag broadcast, 1-level bypass — complexity close to \
       in-order, far from out-of-order";
    bench_job =
      (fun ctx p ->
        let activity cfg =
          let e = U.Complexity.energy_of_run cfg (Suite.run ctx p cfg) in
          [
            e.U.Complexity.ext_rf_accesses_per_instr;
            e.U.Complexity.int_rf_accesses_per_instr;
            e.U.Complexity.bypass_values_per_instr;
            e.U.Complexity.broadcast_work_per_instr;
          ]
        in
        Array.of_list (activity U.Config.ooo_8wide @ activity U.Config.braid_8wide));
    assemble =
      (fun cells ->
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
        ( [ static_series; activity_series ],
          [],
          [
            metric "ooo/braid-total" (U.Complexity.relative ooo_c braid_c);
            metric "braid/inorder-total" (U.Complexity.relative braid_c io_c);
          ] ));
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
    ~variant_col:"ooo-in-beu" ~note:"average gain" ~base:U.Config.braid_8wide
    (variant U.Config.braid_8wide [ ("beu_out_of_order", "true") ])

(* ---------------------------------------------------------------- *)
(* §5.2: clustering BEUs                                             *)
(* ---------------------------------------------------------------- *)

let clustering_ablation =
  let variants =
    [ ("flat", 0, 0); ("2x4+2cyc", 4, 2); ("4x2+2cyc", 2, 2); ("2x4+4cyc", 4, 4) ]
  in
  std ~id:"clustering-ablation"
    ~title:"§5.2: clustered BEUs — inter-cluster values pay extra latency"
    ~expect:
      "clustering is orthogonal: fast intra-cluster communication preserves \
       most performance while easing wiring"
    ~table_title:"Braid performance under BEU clustering (normalised to flat)"
    ~cols:(List.map (fun (n, _, _) -> n) variants)
    ~headline:[ ("2x4+2cyc", "2x4+2cyc"); ("2x4+4cyc", "2x4+4cyc") ]
    (speedups ~base:U.Config.braid_8wide
       (List.map
          (fun (_, size, lat) ->
            variant U.Config.braid_8wide
              [ ikv "beu_cluster_size" size; ikv "inter_cluster_latency" lat ])
          variants))

(* ---------------------------------------------------------------- *)
(* Binary translation vs braid-aware compilation (§3.1 methodology)  *)
(* ---------------------------------------------------------------- *)

let binary_translation =
  std ~id:"binary-translation"
    ~title:
      "Methodology ablation: braid-aware compilation vs binary translation of a \
       preexisting binary (both normalised to 8-wide OoO)"
    ~expect:
      "the paper braided preexisting Alpha binaries and notes a braid-aware \
       compiler would do better (more internal values, no translation \
       artifacts)"
    ~table_title:"Braid performance: compiled vs translated binary"
    ~cols:[ "compiled"; "translated" ]
    (fun ctx p ->
      let base = Suite.run ctx p U.Config.ooo_8wide in
      let compiled = Suite.run ctx p U.Config.braid_8wide in
      (* braid the already-allocated conventional binary, as the paper's
         profiling + binary-translation tools did *)
      let translated_prog =
        (C.Transform.run_binary p.Suite.conventional.C.Extalloc.program)
          .C.Transform.program
      in
      let out =
        Emulator.run ~max_steps:(50 * p.Suite.scale) ~init_mem:p.Suite.init_mem
          translated_prog
      in
      let translated =
        U.Core.result (U.Core.run ~warm_data:p.Suite.warm_data
          U.Config.braid_8wide (Option.get out.Emulator.trace))
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
  let limited base =
    speedups ~base
      (List.map (fun n -> variant base [ ikv "max_unresolved_branches" n ]) counts)
  in
  let ooo = limited U.Config.ooo_8wide and braid = limited U.Config.braid_8wide in
  (* equal checkpoint storage: a conventional checkpoint snapshots a
     256-entry map, a braid checkpoint the 8-entry external file and no
     internal state (§3.4) — call it 8x more checkpoints per byte *)
  std ~id:"checkpoint-ablation"
    ~title:"§3.4 ablation: performance vs checkpoint count (unresolved branches in flight)"
    ~expect:
      "checkpoints require less state in the braid machine: internal values \
       are dead at braid boundaries and never checkpointed"
    ~table_title:
      "Performance vs checkpoint count (each normalised to its own unlimited machine)"
    ~cols
    ~notes:
      [
        "equal-storage reading: compare ooo@2 against braid@16 — a braid \
         checkpoint carries ~1/8 the state (8-entry external file, no internal \
         values), so the same budget buys 8x more checkpoints.";
      ]
    ~headline:[ ("ooo@2", "ooo@2"); ("braid@2", "braid@2"); ("braid@16", "braid@16") ]
    (fun ctx p ->
      let o = ooo ctx p and b = braid ctx p in
      Array.concat (List.mapi (fun i _ -> [| o.(i); b.(i) |]) counts))

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
    (fun ctx p ->
      let perceptron = Suite.run ctx p U.Config.braid_8wide in
      let gshare =
        Suite.run ctx p (variant U.Config.braid_8wide [ ("predictor", "gshare") ])
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
    (fun _ctx p ->
      let s = braid_summary p in
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
  let variants =
    [
      ("baseline", []);
      ("wrong-path", [ ("model_wrong_path_fetch", "true") ]);
      ("btb-512", [ ikv "btb_entries" 512 ]);
      ("btb-64", [ ikv "btb_entries" 64 ]);
    ]
  in
  std ~id:"frontend-ablation"
    ~title:
      "Front-end fidelity ablation: wrong-path I-cache pollution and finite BTBs \
       (braid machine, normalised to the default front end)"
    ~expect:
      "the default model treats wrong-path work as a pure bubble and targets \
       as perfect; these options bound how much that flatters the results"
    ~table_title:"Braid performance under front-end fidelity options"
    ~cols:(List.map fst variants)
    ~headline:
      [ ("wrong-path", "wrong-path"); ("btb-512", "btb-512"); ("btb-64", "btb-64") ]
    (speedups ~base:U.Config.braid_8wide
       (List.map (fun (_, kvs) -> variant U.Config.braid_8wide kvs) variants))

(* ---------------------------------------------------------------- *)
(* Seed robustness: the headline result across workload seeds        *)
(* ---------------------------------------------------------------- *)

let seed_robustness =
  let seeds = [ 1; 2; 3 ] in
  let cols = List.map (fun s -> Printf.sprintf "seed-%d" s) seeds in
  {
    id = "seed-robustness";
    title =
      "Robustness: braid/OoO performance ratio across three workload-generation seeds";
    paper_expectation =
      "the headline ratio should be a property of the workload shapes, not \
       of one particular random instance";
    bench_job =
      (fun ctx p ->
        Array.of_list
          (List.map
             (fun seed ->
               let p = Suite.prepare ctx ~seed ~scale:p.Suite.scale p.Suite.profile in
               let ooo = Suite.run ctx p U.Config.ooo_8wide in
               let braid = Suite.run ctx p U.Config.braid_8wide in
               U.Core.speedup ooo braid)
             seeds));
    assemble =
      (fun cells ->
        let per_seed = List.map (fun c -> overall_avg cols cells c) cols in
        let spread =
          List.fold_left max 0.0 per_seed -. List.fold_left min 2.0 per_seed
        in
        ( [ bench_series ~title:"braid-8 relative to ooo-8, per seed" ~cols cells ],
          [ Printf.sprintf "spread of the suite average across seeds: %.3f" spread ],
          List.map2 (fun c v -> metric c v) cols per_seed @ [ metric "spread" spread ] ));
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

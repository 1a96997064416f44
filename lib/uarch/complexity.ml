type t = {
  rf_area : float;
  scheduler_area : float;
  bypass_area : float;
  rename_ports : float;
  wakeup_broadcast_per_result : float;
  total : float;
}

let word_bits = 64.0

let rf_area_of ~entries ~read_ports ~write_ports =
  let ports = float_of_int (read_ports + write_ports) in
  float_of_int entries *. ports *. ports *. word_bits

let of_config (cfg : Config.t) =
  let f = float_of_int in
  (* external register file *)
  let ext_rf =
    rf_area_of ~entries:cfg.Config.ext_regs ~read_ports:cfg.Config.rf_read_ports
      ~write_ports:cfg.Config.rf_write_ports
  in
  (* local (internal) register files: 8 entries, 4r/2w, one per BEU or
     per CG-OoO block window *)
  let int_rf =
    match cfg.Config.kind with
    | Config.Braid_exec ->
        f cfg.Config.clusters *. rf_area_of ~entries:8 ~read_ports:4 ~write_ports:2
    | Config.Cgooo ->
        f cfg.Config.block_windows
        *. rf_area_of ~entries:8 ~read_ports:4 ~write_ports:2
    | Config.In_order | Config.Dep_steer | Config.Ooo -> 0.0
  in
  let window = cfg.Config.clusters * cfg.Config.cluster_entries in
  let tag_bits = 8.0 in
  let scheduler_area, wakeup =
    match cfg.Config.kind with
    | Config.Ooo ->
        (* every entry holds tag comparators for each result broadcast *)
        let per_entry = tag_bits *. f (cfg.Config.clusters * cfg.Config.fus_per_cluster) in
        (f window *. per_entry, f window)
    | Config.Dep_steer | Config.In_order ->
        (* FIFO storage plus head comparators; results still wake the
           whole window's scoreboard, conservatively counted per FIFO
           head *)
        let heads = cfg.Config.clusters * cfg.Config.sched_window in
        (f window +. (tag_bits *. f heads), f heads)
    | Config.Braid_exec ->
        (* FIFO storage; readiness via the per-BEU busy-bit vector (8 bits)
           and the 2-entry head window *)
        let heads = cfg.Config.clusters * cfg.Config.sched_window in
        ( f window +. (tag_bits *. f heads) +. (8.0 *. f cfg.Config.clusters),
          f heads )
    | Config.Cgooo ->
        (* per-window FIFO storage; only the in-order head entries hold
           comparators and only they are woken — block-level selection is
           an age pick over [block_windows] windows (8 bits each) *)
        let bw_window = cfg.Config.block_windows * cfg.Config.cluster_entries in
        let heads = cfg.Config.block_windows * cfg.Config.block_head_window in
        ( f bw_window +. (tag_bits *. f heads)
          +. (8.0 *. f cfg.Config.block_windows),
          f heads )
  in
  let bypass_levels =
    match cfg.Config.kind with
    | Config.Braid_exec -> 1.0
    | Config.Cgooo -> 2.0
    | _ -> 3.0
  in
  let bypass_area =
    bypass_levels *. f cfg.Config.bypass_per_cycle *. f cfg.Config.bypass_per_cycle
    *. word_bits
  in
  let rename_ports = f (cfg.Config.rename_src_width + cfg.Config.rename_dst_width) in
  let total = ext_rf +. int_rf +. scheduler_area +. bypass_area in
  {
    rf_area = ext_rf +. int_rf;
    scheduler_area;
    bypass_area;
    rename_ports;
    wakeup_broadcast_per_result = wakeup;
    total;
  }

let relative a b = a.total /. b.total

let describe (cfg : Config.t) =
  let c = of_config cfg in
  Printf.sprintf
    "%s: RF %.0f, scheduler %.0f, bypass %.0f (total %.0f); %.0f rename ports, \
     %.0f window entries woken per result"
    cfg.Config.name c.rf_area c.scheduler_area c.bypass_area c.total c.rename_ports
    c.wakeup_broadcast_per_result

type energy_proxy = {
  ext_rf_accesses_per_instr : float;
  int_rf_accesses_per_instr : float;
  bypass_values_per_instr : float;
  broadcast_work_per_instr : float;
}

let energy_of_run (cfg : Config.t) (r : Core.result) =
  let n = float_of_int (max 1 r.Core.instructions) in
  let a = r.Core.activity in
  let c = of_config cfg in
  {
    ext_rf_accesses_per_instr =
      float_of_int (a.Machine.ext_rf_reads + a.Machine.ext_rf_writes) /. n;
    int_rf_accesses_per_instr =
      float_of_int (a.Machine.int_rf_reads + a.Machine.int_rf_writes) /. n;
    bypass_values_per_instr = float_of_int a.Machine.bypass_values /. n;
    broadcast_work_per_instr =
      float_of_int a.Machine.ext_rf_writes
      *. c.wakeup_broadcast_per_result /. n;
  }

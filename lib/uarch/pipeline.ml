(* The solo entry point: build one stepable core over its private memory
   hierarchy, run it to completion ([Core.run]) and read its result. *)

type stalls = Core.stalls = {
  fetch_redirect : int;
  fetch_icache : int;
  dispatch_core : int;
  dispatch_frontend : int;
}

type result = Core.result = {
  config_name : string;
  instructions : int;
  cycles : int;
  ipc : float;
  branch_lookups : int;
  branch_mispredicts : int;
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  dispatch_stall_regs : int;
  faults : int;
  activity : Machine.activity;
  stalls : stalls;
  avg_occupancy : float;
}

exception Deadlock = Core.Deadlock

let run ?probe ?warm_data ?prewarm ?measure_from cfg trace =
  Core.result (Core.run ?probe ?warm_data ?prewarm ?measure_from cfg trace)

let speedup = Core.speedup

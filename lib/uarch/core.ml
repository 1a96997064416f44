(* One core's whole pipeline — fetch, dispatch, execution core, commit —
   as a stepable value: [create] builds the machine and warms its
   caches, [step] advances exactly one cycle, [result] and [counters]
   read a finished run. [run] is [create] + a
   step-until-finished loop; a CMP interleaves [step]s of many cores
   under one global clock. *)

type stalls = {
  fetch_redirect : int;  (** cycles fetch waited on a mispredicted branch *)
  fetch_icache : int;  (** cycles fetch waited on an I-cache fill *)
  dispatch_core : int;  (** cycles the execution core refused dispatch *)
  dispatch_frontend : int;  (** cycles a front-end resource refused it *)
}

type result = {
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
  avg_occupancy : float;  (** mean instructions resident in the core *)
}

exception Deadlock of string

(* The result's integer counters as one vector, in field order: the
   only list of them a window subtracts or a sample extrapolates. *)
let counts r =
  let a = r.activity and s = r.stalls in
  [|
    r.branch_lookups;
    r.branch_mispredicts;
    r.l1i_misses;
    r.l1d_misses;
    r.l2_misses;
    r.dispatch_stall_regs;
    r.faults;
    a.Machine.ext_rf_reads;
    a.Machine.ext_rf_writes;
    a.Machine.int_rf_reads;
    a.Machine.int_rf_writes;
    a.Machine.bypass_values;
    s.fetch_redirect;
    s.fetch_icache;
    s.dispatch_core;
    s.dispatch_frontend;
  |]

let with_counts r c =
  {
    r with
    branch_lookups = c.(0);
    branch_mispredicts = c.(1);
    l1i_misses = c.(2);
    l1d_misses = c.(3);
    l2_misses = c.(4);
    dispatch_stall_regs = c.(5);
    faults = c.(6);
    activity =
      {
        Machine.ext_rf_reads = c.(7);
        ext_rf_writes = c.(8);
        int_rf_reads = c.(9);
        int_rf_writes = c.(10);
        bypass_values = c.(11);
      };
    stalls =
      {
        fetch_redirect = c.(12);
        fetch_icache = c.(13);
        dispatch_core = c.(14);
        dispatch_frontend = c.(15);
      };
  }

type counter =
  | Count of int
  | Hist of { bounds : int array; counts : int array; observations : int; sum : int }

(* Occupancy histogram: inclusive upper bucket bounds plus an overflow
   bucket, and the bucket of every occupancy up to the last bound, so
   one cycle's sample costs one lookup and one add. *)
let occupancy_bounds = [| 0; 2; 4; 8; 16; 32; 64; 128; 256 |]
let occupancy_overflow = Array.length occupancy_bounds

let occupancy_bucket =
  Array.init
    (occupancy_bounds.(occupancy_overflow - 1) + 1)
    (fun v ->
      let rec find i = if v <= occupancy_bounds.(i) then i else find (i + 1) in
      find 0)

type redirect = {
  uid : int;  (** instruction whose resolution restarts fetch *)
  penalty : int;
  wrong_path : (int * int) option;  (** (block, offset) fetch runs down *)
}

(* A stream must keep every uid from the oldest uncommitted one to the
   last one fetch may read in a cycle: the in-flight window, the fetch
   buffer and one fetch group, plus the slot its ring keeps free. *)
let min_window (cfg : Config.t) =
  let need = cfg.Config.fetch_buffer + cfg.Config.inflight + cfg.Config.fetch_width in
  let rec pow2 k = if k > need then k else pow2 (2 * k) in
  pow2 2

type t = {
  machine : Machine.t;
  step_fn : unit -> unit;
  result_fn : unit -> result;
  counters_fn : unit -> (string * counter) list;
}

let create ?(probe = Probe.off) ?(warm_data = []) ?warm ?prewarm ?measure_from
    ?hier (cfg : Config.t) (trace : Trace.t) =
  let n = Trace.length trace in
  if n = 0 then invalid_arg "Core.create: empty trace";
  if Trace.capacity trace < min_window cfg then
    invalid_arg
      (Printf.sprintf "Core.create: a stream window of %d uids under %s's minimum %d"
         (Trace.capacity trace) cfg.Config.name (min_window cfg));
  let warm =
    match (warm, prewarm) with
    | Some _, Some _ -> invalid_arg "Core.create: both warm and prewarm given"
    | w, None -> w
    | None, Some t -> Some (Trace.Warm.of_trace t)
  in
  (* the replay reads the words decoded from the trace's statics *)
  (match warm with
  | Some w when Trace.Warm.statics w != Trace.statics trace ->
      invalid_arg "Core.create: a warm-up buffer walked over other code than the trace's"
  | Some _ | None -> ());
  (match measure_from with
  | Some mf when mf < 0 || mf >= n ->
      invalid_arg
        (Printf.sprintf "Core.create: measure_from %d outside trace [0, %d)" mf n)
  | _ -> ());
  let m = Machine.create ~probe ?hier cfg trace in
  (* Warm-up: the measured window is a steady-state snapshot of a much
     longer run (MinneSPEC), so code lines are warm in L1I/L2 and the
     initial data image is warm in L2. *)
  let h = Machine.hierarchy m in
  Array.iter (fun line -> Mem_hier.warm_instr h line) (Trace.warm_lines trace);
  Mem_hier.warm_l2_lines h warm_data;
  let core = Exec_core.create m in
  (* each fetched instruction's word ([Machine.decode]); fetch and
     dispatch both go in uid order, so the head is uid
     [Machine.dispatched_count m] *)
  let fetchq = Ring.create ~capacity:cfg.Config.fetch_buffer in
  let fetch_idx = ref 0 in
  let blocked : redirect option ref = ref None in
  let icache_ready = ref 0 in
  let last_line = ref min_int in
  let faults = ref 0 in
  let hier = Machine.hierarchy m in
  let pred = Machine.predictor m in
  (* Sampled simulation: replay the warm-up window preceding the measured
     interval into caches and predictor (no statistics, no timing), so the
     interval starts from the microarchitectural state its position in the
     full run implies rather than from the steady-state approximation
     above alone. *)
  (match warm with
  | None -> ()
  | Some w ->
      let last = ref min_int in
      for u = 0 to Trace.Warm.length w - 1 do
        let word = Machine.static_word m (Trace.Warm.sidx w u) in
        let pc = Machine.Word.pc word in
        let line = pc / 64 in
        if line <> !last then begin
          Mem_hier.warm_instr hier pc;
          last := line
        end;
        if Machine.Word.is_load word || Machine.Word.is_store word then
          Mem_hier.warm_data hier (Trace.Warm.value w u)
        else if Machine.Word.is_cond_branch word then
          Predictor.warm pred ~pc ~taken:(Trace.Warm.value w u <> 0)
      done);
  let guard = (200 * n) + 100_000 in
  let last_progress = ref 0 in
  let last_committed = ref 0 in
  let stall_redirect = ref 0 and stall_icache = ref 0 in
  let stall_core = ref 0 and stall_frontend = ref 0 in
  let occupancy_sum = ref 0 in
  let occupancy_counts = Array.make (occupancy_overflow + 1) 0 in
  (* The whole run's result so far. A [measure_from] run snapshots it,
     with the occupancy sum, the cycle the last warm-up instruction
     commits, and reports the difference. Commit-to-commit deltas
     telescope — summed over contiguous intervals they equal the full
     run's cycle count — so windowed measurement has no systematic drain
     bias (a fetch-time boundary would charge every window the full
     end-of-trace pipeline drain that a real run overlaps with younger
     instructions). *)
  let whole () =
    let cycles = Machine.now m in
    {
      config_name = cfg.Config.name;
      instructions = n;
      cycles;
      ipc = float_of_int n /. float_of_int (Int.max 1 cycles);
      branch_lookups = Predictor.lookups pred;
      branch_mispredicts = Predictor.mispredicts pred;
      l1i_misses = snd (Mem_hier.l1i_stats hier);
      l1d_misses = snd (Mem_hier.l1d_stats hier);
      l2_misses = snd (Mem_hier.l2_stats hier);
      dispatch_stall_regs = Machine.stall_dispatch_regs m;
      faults = !faults;
      activity = Machine.activity m;
      stalls =
        {
          fetch_redirect = !stall_redirect;
          fetch_icache = !stall_icache;
          dispatch_core = !stall_core;
          dispatch_frontend = !stall_frontend;
        };
      avg_occupancy =
        float_of_int !occupancy_sum /. float_of_int (Int.max 1 cycles);
    }
  in
  let boundary = ref None in
  (* finite BTB: direct-mapped table of transfer pcs *)
  let btb =
    if cfg.Config.btb_entries > 0 then Some (Array.make cfg.Config.btb_entries (-1))
    else None
  in
  let btb_hit pc =
    match btb with
    | None -> true
    | Some table ->
        let idx = (pc lsr 2) mod Array.length table in
        let hit = table.(idx) = pc in
        table.(idx) <- pc;
        hit
  in
  (* Wrong-path fetch: while a redirect is pending, walk the static
     program down the mispredicted direction, touching I-cache lines
     (polluting them) at fetch width per cycle. *)
  let program = Trace.program trace in
  let wrong_path_of (e : Trace.static) ~taken =
    let b = program.Program.blocks.(e.Trace.block_id) in
    if taken then
      (* predicted not-taken: the wrong path falls through *)
      if e.Trace.offset + 1 < Array.length b.Program.instrs then
        Some (e.Trace.block_id, e.Trace.offset + 1)
      else Option.map (fun ft -> (ft, 0)) b.Program.fallthrough
    else
      (* predicted taken: the wrong path is the branch target *)
      match b.Program.instrs.(e.Trace.offset).Instr.op with
      | Op.Branch (_, _, target) -> Some (target, 0)
      | _ -> None
  in
  let advance_wrong_path loc =
    (* touch this cycle's wrong-path lines; return the next location *)
    let rec go (blk, off) k last_line =
      if k = 0 then Some (blk, off)
      else
        let b = program.Program.blocks.(blk) in
        if off >= Array.length b.Program.instrs then
          match b.Program.fallthrough with
          | Some ft -> go (ft, 0) k last_line
          | None -> None
        else begin
          let pc = Program.pc_of program ~block_id:blk ~offset:off in
          let line = pc / 64 in
          if line <> last_line then ignore (Mem_hier.instr_latency hier pc);
          (* wrong-path fetch assumes not-taken on conditionals and
             follows jumps *)
          match b.Program.instrs.(off).Instr.op with
          | Op.Jump target -> go (target, 0) (k - 1) line
          | Op.Halt -> None
          | _ -> go (blk, off + 1) (k - 1) line
        end
    in
    go loc cfg.Config.fetch_width (-1)
  in
  let step () =
    Machine.begin_cycle m;
    let now = Machine.now m in
    if now > guard then
      raise
        (Deadlock
           (Printf.sprintf "%s: no completion after %d cycles (%d/%d committed)"
              cfg.Config.name now (Machine.committed_count m) n));
    Machine.commit_stage m;
    (match (measure_from, !boundary) with
    | Some mf, None when Machine.committed_count m >= mf ->
        boundary := Some (mf, whole (), !occupancy_sum)
    | _ -> ());
    Exec_core.cycle core;
    let occupancy = Exec_core.occupancy core in
    occupancy_sum := !occupancy_sum + occupancy;
    let b =
      if occupancy < Array.length occupancy_bucket then occupancy_bucket.(occupancy)
      else occupancy_overflow
    in
    occupancy_counts.(b) <- occupancy_counts.(b) + 1;
    (* dispatch *)
    let continue_dispatch = ref true in
    while !continue_dispatch && not (Ring.is_empty fetchq) do
      let u = Machine.dispatched_count m and w = Ring.peek fetchq in
      match Machine.can_dispatch m u w with
      | Machine.Block_none ->
          if Exec_core.try_dispatch core u w then begin
            Machine.note_dispatch m u;
            ignore (Ring.pop fetchq)
          end
          else begin
            incr stall_core;
            Probe.on_stall probe ~cycle:now "core-full";
            continue_dispatch := false
          end
      | block ->
          incr stall_frontend;
          Probe.on_stall probe ~cycle:now (Machine.dispatch_block_name block);
          continue_dispatch := false
    done;
    (* resolve fetch redirects *)
    (match !blocked with
    | Some r ->
        incr stall_redirect;
        Probe.on_stall probe ~cycle:now "redirect";
        (if cfg.Config.model_wrong_path_fetch then
           match r.wrong_path with
           | Some loc ->
               blocked := Some { r with wrong_path = advance_wrong_path loc }
           | None -> ());
        if
          Machine.issued m r.uid
          && now >= Machine.complete_cycle m r.uid + r.penalty
        then blocked := None
    | None ->
        if now < !icache_ready then begin
          incr stall_icache;
          Probe.on_stall probe ~cycle:now "icache"
        end);
    (* fetch *)
    if Option.is_none !blocked && now >= !icache_ready then begin
      let fetched = ref 0 and branches = ref 0 in
      let stop = ref false in
      while
        (not !stop)
        && !fetched < cfg.Config.fetch_width
        && !fetch_idx < n
        && not (Ring.is_full fetchq)
      do
        let u = !fetch_idx in
        (* a stream produces more once fetch reaches its frontier,
           overwriting only committed uids *)
        if u = Trace.produced trace then
          Trace.refill trace ~keep:(Machine.committed_count m);
        (* decode: the static index and flag byte, read once *)
        let w = Machine.decode m u in
        let pc = Machine.Word.pc w in
        (* I-cache: charge per new line; a miss stalls fetch *)
        let line = pc / 64 in
        if line <> !last_line then begin
          let lat = Mem_hier.instr_latency hier pc in
          last_line := line;
          if lat > cfg.Config.mem.Config.l1i.Config.latency then begin
            icache_ready := now + lat;
            Probe.on_icache_miss probe ~cycle:now ~lat;
            stop := true
          end
        end;
        if not !stop then begin
          let is_branch = Machine.Word.is_branch w in
          if is_branch && !branches >= cfg.Config.max_branches_per_cycle then
            stop := true
          else begin
            let taken = is_branch && Machine.Word.is_taken w in
            Ring.push fetchq w;
            incr fetched;
            Probe.on_fetch probe trace ~cycle:now u;
            if is_branch then incr branches;
            (* a taken transfer missing in the BTB costs a fetch bubble *)
            if is_branch && taken && not (btb_hit pc) then
              icache_ready := Int.max !icache_ready (now + 2);
            if Machine.Word.is_cond_branch w then begin
              let correct = Predictor.predict_and_train pred ~pc ~taken in
              if not correct then begin
                blocked :=
                  Some
                    {
                      uid = u;
                      penalty = cfg.Config.misprediction_penalty;
                      wrong_path =
                        (if cfg.Config.model_wrong_path_fetch then
                           wrong_path_of (Trace.static trace u) ~taken
                         else None);
                    };
                stop := true
              end
            end;
            (* arithmetic faults serialize: drain, handle, resume (§3.4) *)
            if Machine.Word.is_faulting w then begin
              incr faults;
              blocked :=
                Some
                  {
                    uid = u;
                    penalty = 2 * cfg.Config.misprediction_penalty;
                    wrong_path = None;
                  };
              stop := true
            end;
            incr fetch_idx
          end
        end
      done
    end;
    (* coarse progress check to catch modeling deadlocks: a long wait
       for a commit is one only when nothing is left scheduled (a
       single write port can drain a backlog for thousands of cycles) *)
    if Machine.committed_count m > !last_committed then begin
      last_committed := Machine.committed_count m;
      last_progress := now
    end
    else if
      now - !last_progress > 4 * cfg.Config.mem.Config.memory_latency + 4096
      && not (Machine.scheduled m)
    then
      raise
        (Deadlock
           (Printf.sprintf "%s: stuck at %d/%d committed (cycle %d)"
              cfg.Config.name (Machine.committed_count m) n now))
  in
  let result () =
    (* With [measure_from], report only the measured suffix: the whole run
       minus its snapshot the cycle the last warm-up instruction committed.
       (Every event commits before the run can complete, so the boundary is
       always captured.) *)
    let r = whole () in
    match !boundary with
    | None -> r
    | Some (mf, b, b_occupancy_sum) ->
        let instructions = n - mf and cycles = r.cycles - b.cycles in
        with_counts
          {
            r with
            instructions;
            cycles;
            ipc = float_of_int instructions /. float_of_int (Int.max 1 cycles);
            avg_occupancy =
              float_of_int (!occupancy_sum - b_occupancy_sum)
              /. float_of_int (Int.max 1 cycles);
          }
          (Array.map2 ( - ) (counts r) (counts b))
  in
  let counters () =
    (* whole-run values (a [measure_from] prefix included), in the order
       the dump has always listed them *)
    let count name n = (name, Count n) in
    let l1i_hits, l1i_misses = Mem_hier.l1i_stats hier in
    let l1d_hits, l1d_misses = Mem_hier.l1d_stats hier in
    let act = Machine.activity m in
    (* a shared L2 belongs to the whole CMP, which lists it once *)
    (if Mem_hier.is_shared hier then []
     else
       let l2_hits, l2_misses = Mem_hier.l2_stats hier in
       [ count "l2.misses" l2_misses; count "l2.hits" l2_hits ])
    @ [
        count "l1d.misses" l1d_misses;
        count "l1d.hits" l1d_hits;
        count "l1i.misses" l1i_misses;
        count "l1i.hits" l1i_hits;
        (* one external-file write per allocation, each either bypassed
           or overflowing to a write port *)
        count "bypass.overflows"
          (act.Machine.ext_rf_writes - act.Machine.bypass_values);
        count "bypass.uses" act.Machine.bypass_values;
        count "extfile.dispatch_stalls" (Machine.stall_dispatch_regs m);
        count "extfile.commit_releases" (Machine.commit_releases m);
        count "extfile.early_releases" (Machine.early_releases m);
        count "extfile.allocs" act.Machine.ext_rf_writes;
        count "commit.instrs" (Machine.committed_count m);
        count "issue.instrs" (Machine.issued_count m);
        count "dispatch.instrs" (Machine.dispatched_count m);
        count "predictor.mispredicts" (Predictor.mispredicts pred);
        count "predictor.lookups" (Predictor.lookups pred);
        count "core.dispatch_rejects" !stall_core;
        count "fetch.instrs" !fetch_idx;
        count "stall.fetch_redirect" !stall_redirect;
        count "stall.fetch_icache" !stall_icache;
        count "stall.dispatch_core" !stall_core;
        count "stall.dispatch_frontend" !stall_frontend;
        ( "core.occupancy",
          Hist
            {
              bounds = Array.copy occupancy_bounds;
              counts = Array.copy occupancy_counts;
              observations = Array.fold_left ( + ) 0 occupancy_counts;
              sum = !occupancy_sum;
            } );
      ]
  in
  { machine = m; step_fn = step; result_fn = result; counters_fn = counters }

let finished t = Machine.all_committed t.machine
let step t = t.step_fn ()

let run ?probe ?warm_data ?warm ?prewarm ?measure_from cfg trace =
  let t = create ?probe ?warm_data ?warm ?prewarm ?measure_from cfg trace in
  while not (finished t) do
    step t
  done;
  t

let result t =
  if not (finished t) then
    invalid_arg "Core.result: the core has not committed its whole trace";
  t.result_fn ()

let counters t =
  if not (finished t) then
    invalid_arg "Core.counters: the core has not committed its whole trace";
  t.counters_fn ()

let speedup base other =
  float_of_int base.cycles /. float_of_int (Int.max 1 other.cycles)

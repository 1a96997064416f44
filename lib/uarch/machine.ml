type mem_status = Mem_blocked | Mem_forward | Mem_cache

(* Per-cycle bounded resource (ports, bypass slots).

   A circular window of usage counters stamped with the cycle they count
   for: slot [c land mask] is valid for cycle [c] iff [stamp = c]. The
   machine publishes its clock via [set_now] each cycle, which is what
   makes reclamation exact — a slot whose stamp is in the past is dead and
   claimable, while a collision between two live (>= now) cycles doubles
   the window instead of merging their counts. Write-port scans
   ([take_first_free]) can probe arbitrarily far past the nominal horizon
   when a port is saturated, so no fixed window is safe without the
   stamp/now discipline. Steady-state operation allocates nothing. *)
module Rc = struct
  type t = {
    limit : int;
    mutable usage : int array;
    mutable stamp : int array;  (* cycle each slot counts for; -1 = never *)
    mutable mask : int;  (* window size - 1; size is a power of two *)
    mutable now : int;  (* machine clock; stamps < now are dead *)
  }

  let initial_slots = 1024

  let create limit =
    {
      limit;
      usage = Array.make initial_slots 0;
      stamp = Array.make initial_slots (-1);
      mask = initial_slots - 1;
      now = 0;
    }

  let set_now t c = t.now <- c

  (* Grow until every live cycle has its own slot (one doubling suffices
     whenever the live span fits the doubled window, which it always does
     for latency-bounded schedules; the loop is a correctness backstop). *)
  let grow t =
    let live = ref [] in
    Array.iteri
      (fun i s -> if s >= t.now then live := (s, t.usage.(i)) :: !live)
      t.stamp;
    let rec fit size =
      let usage = Array.make size 0 in
      let stamp = Array.make size (-1) in
      let mask = size - 1 in
      let ok =
        List.for_all
          (fun (c, u) ->
            let i = c land mask in
            if stamp.(i) = -1 then begin
              stamp.(i) <- c;
              usage.(i) <- u;
              true
            end
            else false)
          !live
      in
      if ok then begin
        t.usage <- usage;
        t.stamp <- stamp;
        t.mask <- mask
      end
      else fit (2 * size)
    in
    fit (2 * (t.mask + 1))

  (* The slot counting for cycle [c], claiming a dead one if needed.
     Only [take] calls this; reads must stay side-effect free. *)
  let rec slot_of t c =
    let i = c land t.mask in
    let s = t.stamp.(i) in
    if s = c then i
    else if s < t.now then begin
      t.stamp.(i) <- c;
      t.usage.(i) <- 0;
      i
    end
    else begin
      grow t;
      slot_of t c
    end

  let used t c =
    let i = c land t.mask in
    if t.stamp.(i) = c then t.usage.(i) else 0

  let available t c n = used t c + n <= t.limit

  let take t c n =
    let i = slot_of t c in
    t.usage.(i) <- t.usage.(i) + n

  let try_take t c n =
    if available t c n then begin
      take t c n;
      true
    end
    else false

  let rec first_free t c n = if available t c n then c else first_free t (c + 1) n

  let take_first_free t c n =
    if n > t.limit then
      invalid_arg
        (Printf.sprintf "Rc.take_first_free: request %d exceeds limit %d" n
           t.limit);
    let c' = first_free t c n in
    take t c' n;
    c'
end

(* Per-instruction in-flight state lives in parallel arrays indexed by uid
   (struct-of-arrays): creating a machine allocates a handful of flat
   arrays instead of one record per event, and the schedulers' per-cycle
   scans walk contiguous ints. [complete_cycle]/[issue_cycle] double as
   the issued flag (max_int = not issued). *)
type t = {
  cfg : Config.t;
  trace : Trace.t;
  n : int;  (* trace length *)
  ready_deps : int array;  (* producers not yet visible *)
  issue_cycle : int array;  (* max_int = not issued *)
  complete_cycle : int array;
  ext_visible : int array;  (* cycle from which consumers can read *)
  int_visible : int array;
  beu : int array;  (* BEU index for braid-core slots, -1 otherwise *)
  ext_entry_freed : Bytes.t;  (* '\001' = external-file entry released *)
  (* dependence graph in CSR form: children of p are
     [child_uid.(child_off.(p)) .. child_uid.(child_off.(p+1) - 1)] *)
  child_off : int array;
  child_uid : int array;
  child_via : Bytes.t;  (* '\001' = internal-register edge *)
  last_ext_reader : int array;  (* -1 = none; braid dead-value release *)
  (* scheduler residency: [home.(u)] is the core cluster holding a
     dispatched, not-yet-issued uid (-1 = none); [ready_in.(c)] counts
     resident entries of cluster [c] whose registers are ready. The wake
     drain and [do_issue] keep the counts current so cores can skip
     clusters (and window tails) with no register-ready work. *)
  home : int array;
  ready_in : int array;
  hier : Mem_hier.hierarchy;
  pred : Predictor.t;
  (* config scalars lifted out of the nested record for the hot paths *)
  alloc_width : int;
  src_width : int;
  dst_width : int;
  max_unresolved : int;
  lsq_limit : int;
  inflight_limit : int;
  is_braid : bool;
  mutable now : int;
  (* wakeup and release calendars (payload = consumer/writer uid) *)
  wake : Calq.t;
  reg_free_at : Calq.t;
  (* resources *)
  read_ports : Rc.t;
  write_ports : Rc.t;
  bypass : Rc.t;
  mutable free_regs : int;
  (* per-cycle dispatch budgets *)
  mutable alloc_left : int;
  mutable src_left : int;
  mutable dst_left : int;
  (* occupancy *)
  mutable dispatched_count : int;
  mutable commit_idx : int;
  mutable inflight_mem : int;
  (* [conflict_store.(u)] for a load: uid of the youngest older store to
     the same address (-1 = none), fixed by the trace. Since dispatch and
     commit are both in uid order, the load's disambiguation status needs
     no in-flight store set: the conflicting store is in flight exactly
     while [commit_idx] has not passed it. *)
  conflict_store : int array;
  mutable stall_regs : int;
  mutable unresolved_branches : int;
  branch_resolve_at : Calq.t;  (* one entry per branch at its resolve cycle *)
  (* activity counters for the complexity/energy model (§5.1) *)
  mutable ext_rf_reads : int;
  mutable ext_rf_writes : int;
  mutable int_rf_reads : int;
  mutable int_rf_writes : int;
  mutable bypass_values : int;
  (* counts no other statistic keeps, for the counter dump *)
  mutable issued_count : int;
  mutable early_releases : int;
  mutable commit_releases : int;
  (* tracer / commit recorder / invariant monitor; Probe.off costs one
     pattern match per hook and never mutates machine state *)
  probe : Probe.t;
  slots : Probe.slots;  (* the per-uid arrays above, as the probe sees them *)
}

let create ?(probe = Probe.off) ?hier cfg trace =
  let n = Trace.length trace in
  let hier =
    match hier with
    | Some h -> h
    | None -> Mem_hier.create_hierarchy cfg.Config.mem
  in
  (* the static dependence structure (CSR children, last external
     readers, store disambiguation) is memoised on the trace: repeated
     runs — the points of a sweep — share one copy; only the per-run
     mutable counts are built fresh *)
  let tb = Trace.dep_tables trace in
  let slots =
    {
      Probe.trace;
      issue_cycle = Array.make n max_int;
      complete_cycle = Array.make n max_int;
      int_visible = Array.make n max_int;
      ext_visible = Array.make n max_int;
      beu = Array.make n (-1);
    }
  in
  {
    cfg;
    trace;
    n;
    ready_deps =
      Array.init n (fun u -> Trace.dep_off trace (u + 1) - Trace.dep_off trace u);
    issue_cycle = slots.Probe.issue_cycle;
    complete_cycle = slots.Probe.complete_cycle;
    ext_visible = slots.Probe.ext_visible;
    int_visible = slots.Probe.int_visible;
    beu = slots.Probe.beu;
    ext_entry_freed = Bytes.make n '\000';
    child_off = tb.Trace.child_off;
    child_uid = tb.Trace.child_uid;
    child_via = tb.Trace.child_via;
    last_ext_reader = tb.Trace.last_ext_reader;
    home = Array.make n (-1);
    ready_in = Array.make (Int.max 1 cfg.Config.clusters) 0;
    hier;
    pred = Predictor.create cfg;
    alloc_width = cfg.Config.alloc_width;
    src_width = cfg.Config.rename_src_width;
    dst_width = cfg.Config.rename_dst_width;
    max_unresolved = cfg.Config.max_unresolved_branches;
    lsq_limit = cfg.Config.lsq_entries;
    inflight_limit = cfg.Config.inflight;
    is_braid = cfg.Config.kind = Config.Braid_exec;
    now = -1;
    (* the horizon only needs to cover the longest completion latency
       (L1 + L2 + memory fill: 409 cycles at the presets); an undersized
       wheel grows, it does not miscount *)
    wake = Calq.create ~horizon:512;
    reg_free_at = Calq.create ~horizon:512;
    read_ports = Rc.create cfg.Config.rf_read_ports;
    write_ports = Rc.create cfg.Config.rf_write_ports;
    bypass = Rc.create cfg.Config.bypass_per_cycle;
    free_regs = cfg.Config.ext_regs;
    alloc_left = 0;
    src_left = 0;
    dst_left = 0;
    dispatched_count = 0;
    commit_idx = 0;
    inflight_mem = 0;
    conflict_store = tb.Trace.conflict_store;
    stall_regs = 0;
    unresolved_branches = 0;
    branch_resolve_at = Calq.create ~horizon:512;
    ext_rf_reads = 0;
    ext_rf_writes = 0;
    int_rf_reads = 0;
    int_rf_writes = 0;
    bypass_values = 0;
    issued_count = 0;
    early_releases = 0;
    commit_releases = 0;
    probe;
    slots;
  }

let cfg t = t.cfg
let probe t = t.probe
let trace t = t.trace
let now t = t.now
let hierarchy t = t.hier
let predictor t = t.pred
let stall_dispatch_regs t = t.stall_regs
let dispatched_count t = t.dispatched_count
let issued_count t = t.issued_count
let early_releases t = t.early_releases
let commit_releases t = t.commit_releases

let issued t u = t.issue_cycle.(u) <> max_int
let complete_cycle t u = t.complete_cycle.(u)
let ext_visible t u = t.ext_visible.(u)
let beu t u = t.beu.(u)
let set_beu t u i = t.beu.(u) <- i

(* [begin_cycle]'s calendar handlers, top-level so that a drain builds
   no closure *)
let wake t u =
  let d = t.ready_deps.(u) - 1 in
  t.ready_deps.(u) <- d;
  if d = 0 && t.home.(u) >= 0 then
    t.ready_in.(t.home.(u)) <- t.ready_in.(t.home.(u)) + 1

let reg_free t u =
  if Bytes.get t.ext_entry_freed u = '\000' then begin
    Bytes.set t.ext_entry_freed u '\001';
    t.free_regs <- t.free_regs + 1;
    (* released before commit: the braid dead-value path *)
    t.early_releases <- t.early_releases + 1;
    Probe.on_ext_release t.probe ~cycle:t.now ~uid:u
  end

let branch_resolved t (_ : int) =
  t.unresolved_branches <- t.unresolved_branches - 1

let begin_cycle t =
  t.now <- t.now + 1;
  (* publish the clock to the per-cycle resources: it is what lets them
     reclaim stale counter slots exactly *)
  Rc.set_now t.read_ports t.now;
  Rc.set_now t.write_ports t.now;
  Rc.set_now t.bypass t.now;
  Calq.drain t.wake t.now wake t;
  Calq.drain t.reg_free_at t.now reg_free t;
  Calq.drain t.branch_resolve_at t.now branch_resolved t;
  t.alloc_left <- t.alloc_width;
  t.src_left <- t.src_width;
  t.dst_left <- t.dst_width

let reg_ready t u = t.ready_deps.(u) = 0

let note_resident t u c =
  t.home.(u) <- c;
  if t.ready_deps.(u) = 0 then t.ready_in.(c) <- t.ready_in.(c) + 1

let ready_in t c = t.ready_in.(c)

(* [complete_cycle] is max_int until issue, so the comparison alone
   implies "issued and past its completion cycle" *)
let is_complete t u = t.complete_cycle.(u) <= t.now

(* Store addresses are known from dispatch (the LSQ disambiguates
   perfectly; all cores share this): only the youngest older store to the
   same address matters, and it is static in the trace. It is still in
   flight — not yet drained to the cache — exactly while [commit_idx]
   hasn't passed it (commit is in uid order, and once it has committed,
   every older same-address store has too, so no conflict remains). *)
let mem_ready t u =
  let su = t.conflict_store.(u) in
  if su < 0 || su < t.commit_idx then Mem_cache
  else if is_complete t su then Mem_forward
  else Mem_blocked

let can_issue_ports t u =
  Rc.available t.read_ports t.now (Trace.static t.trace u).Trace.ext_src_reads

let schedule_wake t cycle uid = Calq.add t.wake cycle uid

(* Schedules the release of producer [p]'s external entry once it has
   completed and its last external reader has issued (or at once when
   nothing reads it externally). *)
let maybe_release t p =
  if
    (Trace.static t.trace p).Trace.writes_ext
    && issued t p
    && Bytes.get t.ext_entry_freed p = '\000'
  then begin
    let r = t.last_ext_reader.(p) in
    if r < 0 then
      Calq.add t.reg_free_at (Int.max (t.complete_cycle.(p) + 1) (t.now + 1)) p
    else if issued t r then
      Calq.add t.reg_free_at
        (Int.max (Int.max t.complete_cycle.(p) t.issue_cycle.(r) + 1) (t.now + 1))
        p
  end

let do_issue t u =
  if issued t u then
    invalid_arg
      (Printf.sprintf "Machine.do_issue: instruction %d already issued (cycle %d)"
         u t.now);
  if not (reg_ready t u) then
    invalid_arg
      (Printf.sprintf
         "Machine.do_issue: instruction %d still waits on %d producer(s) (cycle %d)"
         u t.ready_deps.(u) t.now);
  (* leaving the scheduler: registers were ready, so it was counted *)
  (if t.home.(u) >= 0 then begin
     t.ready_in.(t.home.(u)) <- t.ready_in.(t.home.(u)) - 1;
     t.home.(u) <- -1
   end);
  let e = Trace.static t.trace u in
  Rc.take t.read_ports t.now e.Trace.ext_src_reads;
  t.ext_rf_reads <- t.ext_rf_reads + e.Trace.ext_src_reads;
  t.int_rf_reads <- t.int_rf_reads + e.Trace.int_src_reads;
  let lat =
    if e.Trace.is_load then
      match mem_ready t u with
      | Mem_forward -> 1
      | Mem_cache -> Mem_hier.data_latency t.hier (Trace.addr t.trace u)
      | Mem_blocked ->
          invalid_arg
            (Printf.sprintf
               "Machine.do_issue: load %d issued while blocked on an \
                unresolved older store (cycle %d)"
               u t.now)
    else e.Trace.latency
  in
  let complete = t.now + lat in
  t.issue_cycle.(u) <- t.now;
  t.complete_cycle.(u) <- complete;
  t.issued_count <- t.issued_count + 1;
  if e.Trace.writes_int then begin
    t.int_visible.(u) <- complete;
    t.int_rf_writes <- t.int_rf_writes + 1
  end;
  let bypassed =
    if not e.Trace.writes_ext then false
    else begin
      let bypassed = Rc.try_take t.bypass complete 1 in
      let wb = Rc.take_first_free t.write_ports complete 1 in
      t.ext_rf_writes <- t.ext_rf_writes + 1;
      if bypassed then t.bypass_values <- t.bypass_values + 1;
      (* without a bypass slot in its completion cycle the value waits
         for a write port and reaches consumers through the file *)
      t.ext_visible.(u) <- (if bypassed then complete else wb + 1);
      bypassed
    end
  in
  Probe.on_issue t.probe t.slots ~cycle:t.now ~lat ~bypassed u;
  for k = t.child_off.(u) to t.child_off.(u + 1) - 1 do
    let c = t.child_uid.(k) in
    let via = Bytes.get t.child_via k <> '\000' in
    let visible = if via then t.int_visible.(u) else t.ext_visible.(u) in
    let visible =
      if visible = max_int then
        (* consumer reads a register this instruction does not publish
           (e.g. internal read of an I+E value resolved externally);
           fall back to the other copy *)
        Int.min t.int_visible.(u) t.ext_visible.(u)
      else visible
    in
    let visible = if visible = max_int then complete else visible in
    schedule_wake t (Int.max visible (t.now + 1)) c
  done;
  (* branch resolution releases its checkpoint *)
  if e.Trace.is_cond_branch && t.max_unresolved > 0 then
    Calq.add t.branch_resolve_at (Int.max (complete + 1) (t.now + 1)) u;
  (* Braid dead-value early release: the in-flight external entry of a
     producer frees once the producer has completed and its last external
     reader (compiler liveness bits) has issued. Commit is the fallback
     release, so this only shortens residency. *)
  if t.is_braid then begin
    maybe_release t u;
    for k = Trace.dep_off t.trace u to Trace.dep_off t.trace (u + 1) - 1 do
      if not (Trace.dep_via t.trace k) then maybe_release t (Trace.dep_uid t.trace k)
    done
  end

type dispatch_block =
  | Block_none
  | Block_alloc
  | Block_rename
  | Block_regs
  | Block_checkpoint
  | Block_lsq
  | Block_inflight

let can_dispatch t u =
  let e = Trace.static t.trace u in
  (* counted on every attempt that lacks a register, whichever check
     refuses it first *)
  let regs_short = e.Trace.writes_ext && t.free_regs < 1 in
  if regs_short then t.stall_regs <- t.stall_regs + 1;
  if t.alloc_left < 1 then Block_alloc
  else if
    t.src_left < e.Trace.ext_src_reads || (e.Trace.writes_ext && t.dst_left < 1)
  then Block_rename
  else if regs_short then Block_regs
  else if
    t.max_unresolved <> 0
    && e.Trace.is_cond_branch
    && t.unresolved_branches >= t.max_unresolved
  then Block_checkpoint
  else if (e.Trace.is_load || e.Trace.is_store) && t.inflight_mem >= t.lsq_limit
  then Block_lsq
  else if t.dispatched_count - t.commit_idx >= t.inflight_limit then
    Block_inflight
  else Block_none

let note_dispatch t u =
  let e = Trace.static t.trace u in
  t.alloc_left <- t.alloc_left - 1;
  t.src_left <- t.src_left - e.Trace.ext_src_reads;
  if e.Trace.writes_ext then begin
    t.dst_left <- t.dst_left - 1;
    t.free_regs <- t.free_regs - 1
  end;
  if e.Trace.is_load || e.Trace.is_store then
    t.inflight_mem <- t.inflight_mem + 1;
  if e.Trace.is_cond_branch && t.max_unresolved > 0 then
    t.unresolved_branches <- t.unresolved_branches + 1;
  t.dispatched_count <- t.dispatched_count + 1;
  Probe.on_dispatch t.probe t.trace ~cycle:t.now ~beu:t.beu.(u) u

let commit_stage t =
  let budget = ref t.cfg.Config.commit_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && t.commit_idx < t.n do
    let u = t.commit_idx in
    if is_complete t u then begin
      let e = Trace.static t.trace u in
      Probe.on_commit t.probe t.trace ~cycle:t.now ~beu:t.beu.(u) u;
      (* stores drain to the data cache at commit (and, on a shared
         backside, through the coherence directory) *)
      if e.Trace.is_store then Mem_hier.drain_store t.hier (Trace.addr t.trace u);
      (* release the rename/in-flight entry at commit unless the braid
         dead-value path already released it *)
      if e.Trace.writes_ext && Bytes.get t.ext_entry_freed u = '\000' then begin
        Bytes.set t.ext_entry_freed u '\001';
        t.free_regs <- t.free_regs + 1;
        t.commit_releases <- t.commit_releases + 1;
        Probe.on_ext_release t.probe ~cycle:t.now ~uid:u
      end;
      if e.Trace.is_load || e.Trace.is_store then
        t.inflight_mem <- t.inflight_mem - 1;
      t.commit_idx <- t.commit_idx + 1;
      decr budget
    end
    else continue_ := false
  done

let all_committed t = t.commit_idx >= t.n
let committed_count t = t.commit_idx

let dispatch_block_name = function
  | Block_none -> "none"
  | Block_alloc -> "alloc-width"
  | Block_rename -> "rename-width"
  | Block_regs -> "ext-regs"
  | Block_checkpoint -> "checkpoint"
  | Block_lsq -> "lsq"
  | Block_inflight -> "inflight"

type activity = {
  ext_rf_reads : int;
  ext_rf_writes : int;
  int_rf_reads : int;
  int_rf_writes : int;
  bypass_values : int;
}

let activity (m : t) =
  let t = m in
  {
    ext_rf_reads = t.ext_rf_reads;
    ext_rf_writes = t.ext_rf_writes;
    int_rf_reads = t.int_rf_reads;
    int_rf_writes = t.int_rf_writes;
    bypass_values = t.bypass_values;
  }

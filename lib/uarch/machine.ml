type mem_status = Mem_blocked | Mem_forward | Mem_cache

(* Per-cycle bounded resource that issue reserves ahead (write ports,
   bypass slots).

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
     Only [take] calls this; reads must stay side-effect free. A slot
     [c land mask] indexes both arrays, so the accesses go unchecked. *)
  let rec slot_of t c =
    let i = c land t.mask in
    let s = Array.unsafe_get t.stamp i in
    if s = c then i
    else if s < t.now then begin
      Array.unsafe_set t.stamp i c;
      Array.unsafe_set t.usage i 0;
      i
    end
    else begin
      grow t;
      slot_of t c
    end

  let used t c =
    let i = c land t.mask in
    if Array.unsafe_get t.stamp i = c then Array.unsafe_get t.usage i else 0

  let available t c n = used t c + n <= t.limit

  let take t c n =
    let i = slot_of t c in
    Array.unsafe_set t.usage i (Array.unsafe_get t.usage i + n)

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

(* An instruction's word: what fetch decodes it to, and all a later
   stage reads of it. Its low byte is the trace's flag byte
   ([Trace.fetch]): taken, faulting, braid start (the S bit), no
   external reader. Above it come the static bits, the external and
   internal read counts (4 bits each), the FU latency (8 bits) and, from
   bit 32, the pc. [of_static] decodes the static part once per static
   instruction; fetch adds the flag byte. *)
module Word = struct
  let taken = Trace.flag_taken
  let faulting = Trace.flag_faulting
  let braid_start = Trace.flag_braid_start
  let no_reader = Trace.flag_no_ext_reader
  let load = 1 lsl 8
  let store = 1 lsl 9
  let cond_branch = 1 lsl 10
  let jump = 1 lsl 11
  let ext_write = 1 lsl 12
  let int_write = 1 lsl 13
  let leader = 1 lsl 14 (* offset 0 in its block *)
  let reads_at = 15
  let latency_at = 23
  let pc_at = 32

  let of_static (e : Trace.static) =
    let field what v bits =
      if v < 0 || v lsr bits <> 0 then
        invalid_arg
          (Printf.sprintf "Machine.Word.of_static: %s %d at pc %d does not fit %d bits"
             what v e.Trace.pc bits);
      v
    in
    (if e.Trace.is_load then load else 0)
    lor (if e.Trace.is_store then store else 0)
    lor (if e.Trace.is_cond_branch then cond_branch else 0)
    lor (if e.Trace.is_jump then jump else 0)
    lor (if e.Trace.writes_ext then ext_write else 0)
    lor (if e.Trace.writes_int then int_write else 0)
    lor (if e.Trace.offset = 0 then leader else 0)
    lor (field "external reads" e.Trace.ext_src_reads 4 lsl reads_at)
    lor (field "internal reads" e.Trace.int_src_reads 4 lsl (reads_at + 4))
    lor (field "latency" e.Trace.latency 8 lsl latency_at)
    lor (field "pc" e.Trace.pc 31 lsl pc_at)

  let is_load w = w land load <> 0
  let is_store w = w land store <> 0
  let is_cond_branch w = w land cond_branch <> 0
  let is_jump w = w land jump <> 0
  let is_branch w = w land (cond_branch lor jump) <> 0
  let writes_ext w = w land ext_write <> 0
  let writes_int w = w land int_write <> 0
  let is_leader w = w land leader <> 0
  let ext_reads w = (w lsr reads_at) land 15
  let int_reads w = (w lsr (reads_at + 4)) land 15
  let latency w = (w lsr latency_at) land 255
  let pc w = w lsr pc_at
  let is_taken w = w land taken <> 0
  let is_faulting w = w land faulting <> 0
  let is_braid_start w = w land braid_start <> 0
  let no_ext_reader w = w land no_reader <> 0
end

(* Per-instruction state lives only while an instruction is in flight, in
   a ring of slots: uid [u] owns slot [u land slot_mask], [stride] ints of
   [slots] starting at [slot t u]. A dispatching uid claims its slot in
   [can_dispatch]; the in-flight bound means the slot's previous owner
   has committed, so the ring starts with a power of two at least
   [min inflight n] slots. A committed producer's value can still be
   unreadable (write-port overflow puts its external copy after commit,
   a clustered braid adds the crossing delay), so a claim that would drop
   such a value doubles the ring instead. A producer whose slot another
   uid owns has therefore settled: every read of it may proceed.

   A claim copies into the slot what the machine reads of the
   instruction after dispatch: the word fetch decoded ([f_info]) and,
   for a load or store, its address ([f_addr]). No stage then reads the
   trace of a uid that may have left it (a stream keeps only a window,
   and a committed producer can settle long after commit).

   An unissued producer [p] keeps its dispatched consumers on a waiter
   list, headed at [waiters.(p land window_mask)]. Consumer [c]'s [i]th
   dependence is node [(c land window_mask) * max_reads + i], holding
   [c lsl 1 lor via]. Producer and waiters are all in flight, so these
   rings, sized by [inflight], never collide. *)
let stride = 10
let f_owner = 0 (* the uid holding the slot, -1 = none *)
let f_pending = 1 (* producers not yet readable, set at dispatch *)
let f_issue = 2 (* max_int = not issued *)
let f_complete = 3 (* max_int = not issued *)
let f_visible = 4 (* cycle the result leaves the instruction: see do_issue *)
let f_beu = 5 (* BEU / block window, -1 = none *)
let f_home = 6 (* execution-core queue while resident and unissued, -1 = none *)
let f_freed = 7 (* 1 = external-file entry released early *)
let f_info = 8 (* the instruction's word *)
let f_addr = 9 (* load/store address *)

type t = {
  cfg : Config.t;
  trace : Trace.t;
  n : int;  (* trace length *)
  decoded : int array;  (* per static index: its word's static part *)
  deps : int array;  (* [Trace.deps_into]'s buffer *)
  max_reads : int;
  mutable slots : int array;
  mutable slot_mask : int;
  waiters : int array;  (* first waiter's node, -1 = none *)
  waiter_next : int array;  (* the next waiter's node, -1 = end *)
  waiter : int array;  (* the waiting consumer's uid lsl 1 lor via *)
  window_mask : int;
  conflict_store : int array;  (* per load, slot [u land window_mask] *)
  stores : Ring.t;  (* in-flight stores, oldest first *)
  (* scheduler residency: [ready_in.(c)] counts the resident entries of
     queue [c] (slot field [f_home]) whose registers are ready.
     Dispatch, the wake drain and [do_issue] keep the counts current so
     the select skips queues (and window tails) with no register-ready
     work. *)
  ready_in : int array;
  mutable ready : int;  (* the sum of [ready_in] *)
  (* braid: issued instructions not yet complete, each leaving at its
     [leaves] cycle *)
  mutable executing : int;
  leaves : Calq.t;
  hier : Mem_hier.hierarchy;
  pred : Predictor.t;
  (* config scalars lifted out of the nested record for the hot paths *)
  read_ports : int;
  alloc_width : int;
  src_width : int;
  dst_width : int;
  max_unresolved : int;
  lsq_limit : int;
  inflight_limit : int;
  is_braid : bool;
  beu_cluster_size : int;  (* braid core only; 0 = one cluster *)
  inter_cluster_latency : int;
  mutable now : int;
  (* wakeup and release calendars (payload = consumer/writer uid) *)
  wake : Calq.t;
  reg_free_at : Calq.t;
  (* resources *)
  write_ports : Rc.t;
  bypass : Rc.t;
  mutable free_regs : int;
  (* per-cycle budgets: external-file reads at issue, then dispatch *)
  mutable reads_left : int;
  mutable alloc_left : int;
  mutable src_left : int;
  mutable dst_left : int;
  (* occupancy *)
  mutable dispatched_count : int;
  mutable commit_idx : int;
  mutable inflight_mem : int;
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
}

let rec pow2_at_least k x = if k >= x then k else pow2_at_least (2 * k) x

let create ?(probe = Probe.off) ?hier cfg trace =
  let n = Trace.length trace in
  let hier =
    match hier with
    | Some h -> h
    | None -> Mem_hier.create_hierarchy cfg.Config.mem
  in
  let is_braid = Config.Core_kind.releases_early cfg.Config.kind in
  if is_braid && not (Trace.marked trace) then
    invalid_arg "Machine.create: the braid core needs a trace with release bits";
  let window = pow2_at_least 1 (Int.min cfg.Config.inflight n) in
  let max_reads = Trace.max_reads trace in
  {
    cfg;
    trace;
    n;
    decoded = Array.map Word.of_static (Trace.statics trace);
    deps = Array.make max_reads 0;
    max_reads;
    slots = Array.make (window * stride) (-1);
    slot_mask = window - 1;
    waiters = Array.make window (-1);
    waiter_next = Array.make (window * max_reads) 0;
    waiter = Array.make (window * max_reads) 0;
    window_mask = window - 1;
    conflict_store = Array.make window (-1);
    stores = Ring.create ~capacity:cfg.Config.lsq_entries;
    ready_in = Array.make (Int.max 1 (Int.max cfg.Config.clusters cfg.Config.block_windows)) 0;
    ready = 0;
    executing = 0;
    (* filled only on braid: other kinds keep a one-slot wheel *)
    leaves = Calq.create ~horizon:(if is_braid then 512 else 1);
    hier;
    pred = Predictor.create cfg;
    read_ports = cfg.Config.rf_read_ports;
    alloc_width = cfg.Config.alloc_width;
    src_width = cfg.Config.rename_src_width;
    dst_width = cfg.Config.rename_dst_width;
    max_unresolved = cfg.Config.max_unresolved_branches;
    lsq_limit = cfg.Config.lsq_entries;
    inflight_limit = cfg.Config.inflight;
    is_braid;
    beu_cluster_size = (if is_braid then cfg.Config.beu_cluster_size else 0);
    inter_cluster_latency = cfg.Config.inter_cluster_latency;
    now = -1;
    (* the horizon only needs to cover the longest completion latency
       (L1 + L2 + memory fill: 409 cycles at the presets); an undersized
       wheel grows, it does not miscount *)
    wake = Calq.create ~horizon:512;
    (* only the braid core schedules register frees *)
    reg_free_at = Calq.create ~horizon:(if is_braid then 512 else 1);
    write_ports = Rc.create cfg.Config.rf_write_ports;
    bypass = Rc.create cfg.Config.bypass_per_cycle;
    free_regs = cfg.Config.ext_regs;
    reads_left = 0;
    alloc_left = 0;
    src_left = 0;
    dst_left = 0;
    dispatched_count = 0;
    commit_idx = 0;
    inflight_mem = 0;
    stall_regs = 0;
    unresolved_branches = 0;
    (* only a bound on unresolved branches schedules resolutions *)
    branch_resolve_at =
      Calq.create ~horizon:(if cfg.Config.max_unresolved_branches > 0 then 512 else 1);
    ext_rf_reads = 0;
    ext_rf_writes = 0;
    int_rf_reads = 0;
    int_rf_writes = 0;
    bypass_values = 0;
    issued_count = 0;
    early_releases = 0;
    commit_releases = 0;
    probe;
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
let executing t = t.executing
let early_releases t = t.early_releases
let commit_releases t = t.commit_releases

(* The first int of [u]'s slot, for a uid the caller knows holds it (in
   flight, or claiming), and field [f] of the slot at [b]. The index is
   in range by construction ([u land slot_mask] is a slot of the current
   ring, [f < stride]), so it goes unchecked. *)
let slot t u = (u land t.slot_mask) * stride
let get t b f = Array.unsafe_get t.slots (b + f)
let set t b f v = Array.unsafe_set t.slots (b + f) v
let has t b bit = get t b f_info land bit <> 0

(* The cycle from which every read of the committed value in slot [b] is
   possible, from any cluster: the latest [readable_at] can return. *)
let settled_at t b =
  let v = Int.max (get t b f_issue + 1) (get t b f_complete) in
  if has t b Word.ext_write then
    Int.max v
      (get t b f_visible
      + if t.beu_cluster_size > 0 then t.inter_cluster_latency else 0)
  else v

(* Double the ring: each slot moves to its owner's place in the larger
   one, and slots distinct modulo the old size stay distinct. *)
let grow t =
  let size = t.slot_mask + 1 in
  let slots = Array.make (2 * size * stride) (-1) in
  let mask = (2 * size) - 1 in
  for i = 0 to size - 1 do
    let o = t.slots.(i * stride) in
    if o >= 0 then Array.blit t.slots (i * stride) slots ((o land mask) * stride) stride
  done;
  t.slots <- slots;
  t.slot_mask <- mask

let rec claim t u w =
  let b = slot t u in
  let o = get t b f_owner in
  if o >= 0 && (o >= t.commit_idx || settled_at t b > t.now) then begin
    grow t;
    claim t u w
  end
  else begin
    set t b f_owner u;
    set t b f_issue max_int;
    set t b f_complete max_int;
    set t b f_beu (-1);
    set t b f_home (-1);
    set t b f_freed 0;
    set t b f_info w;
    set t b f_addr
      (if w land (Word.load lor Word.store) <> 0 then Trace.addr t.trace u else -1)
  end

let complete_cycle t u =
  let b = slot t u in
  if get t b f_owner = u then get t b f_complete
  else if u >= t.dispatched_count then max_int
  else
    invalid_arg
      (Printf.sprintf "Machine: instruction %d has left the in-flight window (cycle %d)"
         u t.now)

let issued t u = complete_cycle t u <> max_int

let set_beu t u i = set t (slot t u) f_beu i

(* [begin_cycle]'s calendar handlers, each called directly from its
   queue's drain loop *)
let wake t u =
  let b = slot t u in
  let d = get t b f_pending - 1 in
  set t b f_pending d;
  let h = get t b f_home in
  if d = 0 && h >= 0 then begin
    t.ready_in.(h) <- t.ready_in.(h) + 1;
    t.ready <- t.ready + 1
  end

(* commit releases every entry it finds held, so a committed uid has
   nothing left to free *)
let reg_free t u =
  let b = slot t u in
  if u >= t.commit_idx && get t b f_freed = 0 then begin
    set t b f_freed 1;
    t.free_regs <- t.free_regs + 1;
    (* released before commit: the braid dead-value path *)
    t.early_releases <- t.early_releases + 1;
    Probe.on_ext_release t.probe ~cycle:t.now ~uid:u
  end

let begin_cycle t =
  t.now <- t.now + 1;
  (* publish the clock to the per-cycle resources: it is what lets them
     reclaim stale counter slots exactly *)
  Rc.set_now t.write_ports t.now;
  Rc.set_now t.bypass t.now;
  (* [Calq.take] releases a cycle's events before its loop runs them *)
  let q = t.wake in
  for j = 0 to Calq.take q t.now - 1 do
    wake t (Calq.taken q j)
  done;
  let q = t.reg_free_at in
  for j = 0 to Calq.take q t.now - 1 do
    reg_free t (Calq.taken q j)
  done;
  (* a resolution or a leave only counts down *)
  t.unresolved_branches <-
    t.unresolved_branches - Calq.take t.branch_resolve_at t.now;
  (* only the braid core fills [leaves]: other kinds skip the call *)
  if t.is_braid then t.executing <- t.executing - Calq.take t.leaves t.now;
  t.reads_left <- t.read_ports;
  t.alloc_left <- t.alloc_width;
  t.src_left <- t.src_width;
  t.dst_left <- t.dst_width

let reg_ready t u = get t (slot t u) f_pending = 0

let note_resident t u c = set t (slot t u) f_home c

let home t u =
  let b = slot t u in
  if get t b f_owner = u then get t b f_home else -1

let ready_in t c = t.ready_in.(c)
let ready t = t.ready

(* [f_complete] is max_int until issue, so the comparison alone implies
   "issued and past its completion cycle" *)
let is_complete t u = get t (slot t u) f_complete <= t.now

(* The conflicting store found at dispatch is in flight exactly while
   [commit_idx] has not passed it: commit is in uid order. *)
let mem_ready t u =
  let su = t.conflict_store.(u land t.window_mask) in
  if su < t.commit_idx then Mem_cache
  else if is_complete t su then Mem_forward
  else Mem_blocked

let can_issue_ports t u = Word.ext_reads (get t (slot t u) f_info) <= t.reads_left

(* The cycle consumer [c] may read the issued producer in slot [pb],
   through a dependence whose via bit is [via], by the rule machine.mli
   states. *)
let readable_at t pb c via =
  let v =
    if has t pb Word.ext_write && not (via && has t pb Word.int_write) then
      let size = t.beu_cluster_size in
      if (not via) && size > 0 && get t pb f_beu / size <> get t (slot t c) f_beu / size
      then get t pb f_visible + t.inter_cluster_latency
      else get t pb f_visible
    else get t pb f_complete
  in
  Int.max v (get t pb f_issue + 1)

let do_issue t u =
  if u >= t.dispatched_count then
    invalid_arg
      (Printf.sprintf "Machine.do_issue: instruction %d has not dispatched (cycle %d)"
         u t.now);
  let b = slot t u in
  if u < t.commit_idx || get t b f_issue <> max_int then
    invalid_arg
      (Printf.sprintf "Machine.do_issue: instruction %d already issued (cycle %d)"
         u t.now);
  if get t b f_pending <> 0 then
    invalid_arg
      (Printf.sprintf
         "Machine.do_issue: instruction %d still waits on %d producer(s) (cycle %d)"
         u (get t b f_pending) t.now);
  (* leaving the scheduler: registers were ready, so it was counted *)
  (let h = get t b f_home in
   if h >= 0 then begin
     t.ready_in.(h) <- t.ready_in.(h) - 1;
     t.ready <- t.ready - 1;
     set t b f_home (-1)
   end);
  let info = get t b f_info in
  let writes_ext = info land Word.ext_write <> 0 in
  t.reads_left <- t.reads_left - Word.ext_reads info;
  t.ext_rf_reads <- t.ext_rf_reads + Word.ext_reads info;
  t.int_rf_reads <- t.int_rf_reads + Word.int_reads info;
  let lat =
    if info land Word.load <> 0 then
      match mem_ready t u with
      | Mem_forward -> 1
      | Mem_cache -> Mem_hier.data_latency t.hier (get t b f_addr)
      | Mem_blocked ->
          invalid_arg
            (Printf.sprintf
               "Machine.do_issue: load %d issued while blocked on an \
                unresolved older store (cycle %d)"
               u t.now)
    else Word.latency info
  in
  let complete = t.now + lat in
  t.issued_count <- t.issued_count + 1;
  if info land Word.int_write <> 0 then t.int_rf_writes <- t.int_rf_writes + 1;
  let bypassed = writes_ext && Rc.try_take t.bypass complete 1 in
  (* a result without an external copy leaves the instruction at
     completion *)
  let visible =
    if not writes_ext then complete
    else begin
      let wb = Rc.take_first_free t.write_ports complete 1 in
      t.ext_rf_writes <- t.ext_rf_writes + 1;
      if bypassed then t.bypass_values <- t.bypass_values + 1;
      (* without a bypass slot in its completion cycle the value waits
         for a write port and reaches consumers through the file *)
      if bypassed then complete else wb + 1
    end
  in
  set t b f_issue t.now;
  set t b f_complete complete;
  set t b f_visible visible;
  Probe.on_issue t.probe t.trace ~cycle:t.now ~lat ~visible ~beu:(get t b f_beu)
    ~bypassed u;
  (* the value's readable cycle is now known: wake the waiters *)
  let h = u land t.window_mask in
  let node = ref t.waiters.(h) in
  while !node >= 0 do
    let c = t.waiter.(!node) in
    Calq.add t.wake (readable_at t b (c lsr 1) (c land 1 <> 0)) (c lsr 1);
    node := t.waiter_next.(!node)
  done;
  t.waiters.(h) <- -1;
  (* branch resolution releases its checkpoint *)
  if info land Word.cond_branch <> 0 && t.max_unresolved > 0 then
    Calq.add t.branch_resolve_at (Int.max (complete + 1) (t.now + 1)) u;
  (* Braid dead-value early release: the in-flight external entry of a
     producer frees once the producer has completed and its last external
     reader (compiler liveness bits: the trace's release bits) has
     issued. That reader found the value readable, so the producer had
     completed. Commit is the fallback release, so this only shortens
     residency ([reg_free] skips an entry commit already released); a
     producer whose slot another uid holds has committed, and needs
     none. *)
  if t.is_braid then begin
    (* a zero-latency issue still counts for the cycle it issues *)
    t.executing <- t.executing + 1;
    Calq.add t.leaves (Int.max complete (t.now + 1)) u;
    if writes_ext && info land Word.no_reader <> 0 then
      Calq.add t.reg_free_at (complete + 1) u;
    let deps = t.deps in
    for i = 0 to Trace.deps_into t.trace u deps - 1 do
      let e = Array.unsafe_get deps i in
      if Trace.entry_last e then begin
        let p = Trace.entry_uid e in
        let pb = slot t p in
        if get t pb f_owner = p && has t pb Word.ext_write then
          Calq.add t.reg_free_at (t.now + 1) p
      end
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

let static_word t s = t.decoded.(s)

(* [Trace.fetch] gives only static indices of the table [decoded] was
   built from *)
let decode t u =
  let sf = Trace.fetch t.trace u in
  Array.unsafe_get t.decoded (sf lsr 8) lor (sf land 0xff)

let can_dispatch t u w =
  (* counted on every attempt that lacks a register, whichever check
     refuses it first *)
  let writes_ext = w land Word.ext_write <> 0 in
  let regs_short = writes_ext && t.free_regs < 1 in
  if regs_short then t.stall_regs <- t.stall_regs + 1;
  if t.alloc_left < 1 then Block_alloc
  else if t.src_left < Word.ext_reads w || (writes_ext && t.dst_left < 1) then
    Block_rename
  else if regs_short then Block_regs
  else if
    t.max_unresolved <> 0
    && w land Word.cond_branch <> 0
    && t.unresolved_branches >= t.max_unresolved
  then Block_checkpoint
  else if w land (Word.load lor Word.store) <> 0 && t.inflight_mem >= t.lsq_limit
  then Block_lsq
  else if t.dispatched_count - t.commit_idx >= t.inflight_limit then
    Block_inflight
  else begin
    (* the execution core writes the slot before [note_dispatch]; a
       retry after the core refused [u] finds it claimed already *)
    if get t (slot t u) f_owner <> u then claim t u w;
    Block_none
  end

(* The youngest in-flight store to [addr], -1 = none *)
let youngest_store t addr =
  let i = ref (Ring.length t.stores - 1) in
  while !i >= 0 && get t (slot t (Ring.get t.stores !i)) f_addr <> addr do
    decr i
  done;
  if !i < 0 then -1 else Ring.get t.stores !i

let note_dispatch t u =
  let b = slot t u in
  let info = get t b f_info in
  (* rename: count the producers [u] cannot read yet; an issued one
     schedules the wake now, an unissued one takes [u] as a waiter, and
     one that has left its slot has settled *)
  let pending = ref 0 in
  let deps = t.deps and node0 = (u land t.window_mask) * t.max_reads in
  for i = 0 to Trace.deps_into t.trace u deps - 1 do
    let e = Array.unsafe_get deps i in
    let p = Trace.entry_uid e in
    let pb = slot t p in
    if get t pb f_owner <> p then ()
    else if get t pb f_issue = max_int then begin
      let node = node0 + i and h = p land t.window_mask in
      t.waiter.(node) <- (u lsl 1) lor Bool.to_int (Trace.entry_via e);
      t.waiter_next.(node) <- t.waiters.(h);
      t.waiters.(h) <- node;
      incr pending
    end
    else begin
      let w = readable_at t pb u (Trace.entry_via e) in
      if w > t.now then begin
        Calq.add t.wake w u;
        incr pending
      end
    end
  done;
  set t b f_pending !pending;
  (let h = get t b f_home in
   if !pending = 0 && h >= 0 then begin
     t.ready_in.(h) <- t.ready_in.(h) + 1;
     t.ready <- t.ready + 1
   end);
  (* a load's only conflict is the youngest in-flight store to its address *)
  t.conflict_store.(u land t.window_mask) <-
    (if info land Word.load <> 0 then youngest_store t (get t b f_addr) else -1);
  if info land Word.store <> 0 then Ring.push t.stores u;
  t.alloc_left <- t.alloc_left - 1;
  t.src_left <- t.src_left - Word.ext_reads info;
  if info land Word.ext_write <> 0 then begin
    t.dst_left <- t.dst_left - 1;
    t.free_regs <- t.free_regs - 1
  end;
  if info land (Word.load lor Word.store) <> 0 then
    t.inflight_mem <- t.inflight_mem + 1;
  if info land Word.cond_branch <> 0 && t.max_unresolved > 0 then
    t.unresolved_branches <- t.unresolved_branches + 1;
  t.dispatched_count <- t.dispatched_count + 1;
  Probe.on_dispatch t.probe t.trace ~cycle:t.now ~beu:(get t b f_beu) u

let commit_stage t =
  let budget = ref t.cfg.Config.commit_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && t.commit_idx < t.dispatched_count do
    let u = t.commit_idx in
    if is_complete t u then begin
      let b = slot t u in
      Probe.on_commit t.probe t.trace ~cycle:t.now ~beu:(get t b f_beu) u;
      (* stores drain to the data cache at commit (and, on a shared
         backside, through the coherence directory) *)
      if has t b Word.store then begin
        ignore (Ring.pop t.stores);
        Mem_hier.drain_store t.hier (get t b f_addr)
      end;
      (* release the rename/in-flight entry at commit unless the braid
         dead-value path already released it *)
      if has t b Word.ext_write && get t b f_freed = 0 then begin
        t.free_regs <- t.free_regs + 1;
        t.commit_releases <- t.commit_releases + 1;
        Probe.on_ext_release t.probe ~cycle:t.now ~uid:u
      end;
      if has t b (Word.load lor Word.store) then t.inflight_mem <- t.inflight_mem - 1;
      t.commit_idx <- t.commit_idx + 1;
      decr budget
    end
    else continue_ := false
  done

let all_committed t = t.commit_idx >= t.n

let scheduled t =
  not
    (Calq.is_empty t.wake
    && Calq.is_empty t.reg_free_at
    && Calq.is_empty t.branch_resolve_at
    && Calq.is_empty t.leaves)
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

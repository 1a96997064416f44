(* One select rule serves every kind (see exec_core.mli): a kind is its
   queues, its steering, its head window and its issue budgets. *)
type t = {
  m : Machine.t;
  kind : Config.core_kind;
  queues : Ring.t array;  (* queue [i] is the machine's cluster [i] *)
  order : int array;  (* the order [cycle] visits the queues in *)
  window : int;  (* head entries select may issue from; max_int = all *)
  per_queue : int;  (* issues per queue per cycle *)
  shared : int;  (* issues per cycle over all queues *)
  mutable target : int;  (* braid / cgooo: the queue taking the braid or
                            block in dispatch; -1 = none *)
  mutable rr : int;  (* ooo: the scheduler round-robin starts from *)
  mutable resident : int;  (* dispatched, not yet issued *)
  deps : int array;  (* dep-steer: [Trace.deps_into]'s buffer *)
}

(* Issue at most [budget] entries of queue [q], cluster [c], oldest
   first, from its [window]-entry head; returns how many issued. No entry
   becomes ready to issue within a cycle (wakeups land at [begin_cycle],
   issuing only consumes ports), so one pass suffices: an entry that
   cannot issue stays skipped while later ones, including those that
   slide into the window as issues shorten the queue, are still
   considered. Once every register-ready entry of the cluster has been
   examined, the rest of the queue cannot issue and the pass stops. *)
let select m q c ~window ~budget =
  let issued = ref 0 in
  let ready_left = ref (Machine.ready_in m c) in
  let i = ref 0 in
  while !issued < budget && !ready_left > 0 && !i < Int.min window (Ring.length q) do
    let u = Ring.get q !i in
    if Machine.reg_ready m u then begin
      decr ready_left;
      if Machine.mem_ready m u <> Machine.Mem_blocked && Machine.can_issue_ports m u
      then begin
        ignore (Ring.remove_at q !i);
        Machine.do_issue m u;
        incr issued
      end
      else incr i
    end
    else incr i
  done;
  !issued

(* Visit the queues in [order] while issues are left and some queue not
   yet visited holds a register-ready entry: an issue lowers only its own
   queue's count, so [unseen] counts those of the queues still ahead. *)
let cycle t =
  let m = t.m in
  let left = ref t.shared and unseen = ref (Machine.ready m) in
  let k = ref 0 in
  while !unseen > 0 && !left > 0 do
    let i = t.order.(!k) in
    let r = Machine.ready_in m i in
    (* most queues have nothing ready most cycles: skip the call *)
    if r > 0 then begin
      unseen := !unseen - r;
      let budget = Int.min t.per_queue !left in
      left := !left - select m t.queues.(i) i ~window:t.window ~budget
    end;
    incr k
  done;
  t.resident <- t.resident - (t.shared - !left)

(* ------------------------------------------------------------------ *)
(* Steering: the queue a dispatching uid enters, -1 = none this cycle.
   Helpers are top level, so a dispatch builds no closure, and their
   scans are loops, which ocamlopt inlines where a [let rec] stays a
   call. *)

let first_empty qs =
  let i = ref 0 in
  while !i < Array.length qs && not (Ring.is_empty qs.(!i)) do
    incr i
  done;
  if !i = Array.length qs then -1 else !i

(* dep-steer: the lowest FIFO with room whose tail produces [u], else the
   first empty one. A tail is resident and unissued, so its FIFO is the
   home [Machine] records for it: [u]'s producers name every candidate,
   and no FIFO is walked. *)
let producer_fifo t u =
  let m = t.m and qs = t.queues and deps = t.deps in
  let best = ref max_int in
  for k = 0 to Trace.deps_into (Machine.trace m) u deps - 1 do
    let p = Trace.entry_uid (Array.unsafe_get deps k) in
    let i = Machine.home m p in
    if i >= 0 && i < !best then begin
      let f = qs.(i) in
      if (not (Ring.is_full f)) && Ring.get f (Ring.length f - 1) = p then best := i
    end
  done;
  if !best < max_int then !best else first_empty qs

(* ooo: the first scheduler with room, round-robin from [start]; spreads
   load like the paper's distributed 32-entry schedulers *)
let with_room qs start =
  let n = Array.length qs in
  let k = ref 0 in
  let i = ref start in
  while !k < n && Ring.is_full qs.(!i) do
    incr k;
    i := if !i + 1 = n then 0 else !i + 1
  done;
  if !k = n then -1 else !i

(* cgooo: window [i] takes the newest block, so it is visited last. The
   annotation makes [=] an int compare, not a call to [caml_equal]. *)
let to_back (order : int array) i =
  for k = 0 to Array.length order - 2 do
    if order.(k) = i then begin
      order.(k) <- order.(k + 1);
      order.(k + 1) <- i
    end
  done

(* braid / cgooo: [u] enters the BEU or window its braid or block holds *)
let follow t u =
  if t.target >= 0 && not (Ring.is_full t.queues.(t.target)) then begin
    Machine.set_beu t.m u t.target;
    t.target
  end
  else -1

let steer t u w =
  let qs = t.queues in
  match t.kind with
  | Config.In_order -> if Ring.is_full qs.(0) then -1 else 0
  | Config.Dep_steer -> producer_fifo t u
  | Config.Ooo ->
      let i = with_room qs t.rr in
      if i >= 0 then t.rr <- (if i + 1 = Array.length qs then 0 else i + 1);
      i
  | Config.Braid_exec ->
      (* an S-bit instruction closes the previous braid and claims an
         empty BEU: one braid per BEU at a time (§3.3); a BEU whose braid
         has fully issued is free, its results flowing on through the
         bypass and external file *)
      if Machine.Word.is_braid_start w then t.target <- first_empty qs;
      follow t u
  | Config.Cgooo ->
      (* a block leader (offset 0) closes the previous block and claims
         an empty window. A sampled trace window may open mid-block, with
         no block in dispatch yet: the cut-off block's tail is timed as a
         short block of its own, as [Emulator.Compiled.trace_window]
         promotes a braid start for the braid core. *)
      if Machine.Word.is_leader w || t.target < 0 then begin
        t.target <- first_empty qs;
        if t.target >= 0 then to_back t.order t.target
      end;
      follow t u

let try_dispatch t u w =
  let i = steer t u w in
  if i < 0 then false
  else begin
    Machine.note_resident t.m u i;
    Ring.push t.queues.(i) u;
    t.resident <- t.resident + 1;
    true
  end

(* ------------------------------------------------------------------ *)

let create m =
  let cfg = Machine.cfg m in
  let fus = cfg.Config.fus_per_cluster in
  let nq, window, per_queue =
    match cfg.Config.kind with
    | Config.In_order -> (1, 1, cfg.Config.clusters * fus)
    | Config.Dep_steer -> (cfg.Config.clusters, 1, fus)
    | Config.Ooo -> (cfg.Config.clusters, max_int, fus)
    | Config.Braid_exec ->
        (* the whole queue for the rejected §5.1 out-of-order BEU *)
        ( cfg.Config.clusters,
          (if cfg.Config.beu_out_of_order then max_int else cfg.Config.sched_window),
          fus )
    | Config.Cgooo -> (cfg.Config.block_windows, 1, cfg.Config.block_head_window)
  in
  {
    m;
    kind = cfg.Config.kind;
    queues = Array.init nq (fun _ -> Ring.create ~capacity:cfg.Config.cluster_entries);
    order = Array.init nq Fun.id;
    window;
    per_queue;
    shared = cfg.Config.clusters * fus;
    target = -1;
    rr = 0;
    resident = 0;
    deps = Array.make (Trace.max_reads (Machine.trace m)) 0;
  }

let occupancy t = t.resident + Machine.executing t.m

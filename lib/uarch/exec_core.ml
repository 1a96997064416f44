type t = {
  try_dispatch : int -> bool;
  cycle : unit -> unit;
  occupancy : unit -> int;
}

let issuable m u =
  Machine.reg_ready m u
  && Machine.mem_ready m u <> Machine.Mem_blocked
  && Machine.can_issue_ports m u

(* ------------------------------------------------------------------ *)

let in_order m =
  let cfg = Machine.cfg m in
  let q = Ring.create ~capacity:cfg.Config.cluster_entries in
  let width = cfg.Config.clusters * cfg.Config.fus_per_cluster in
  let try_dispatch u =
    if Ring.is_full q then false
    else begin
      Ring.push q u;
      true
    end
  in
  let cycle () =
    let issued = ref 0 in
    let blocked = ref false in
    while (not !blocked) && !issued < width && not (Ring.is_empty q) do
      let u = Ring.peek q in
      if issuable m u then begin
        ignore (Ring.pop q);
        Machine.do_issue m u;
        incr issued
      end
      else blocked := true
    done
  in
  { try_dispatch; cycle; occupancy = (fun () -> Ring.length q) }

(* ------------------------------------------------------------------ *)

let dep_steer m =
  let cfg = Machine.cfg m in
  let fifos =
    Array.init cfg.Config.clusters (fun _ ->
        Ring.create ~capacity:cfg.Config.cluster_entries)
  in
  let tr = Machine.trace m in
  let nfifo = Array.length fifos in
  (* [p] is one of [u]'s register producers: a walk of its dependence
     entries [k .. stop - 1] *)
  let rec produces p k stop =
    k < stop && (Trace.dep_uid tr k = p || produces p (k + 1) stop)
  in
  let tail_matches u f =
    (not (Ring.is_empty f))
    && (not (Ring.is_full f))
    && produces
         (Ring.get f (Ring.length f - 1))
         (Trace.dep_off tr u)
         (Trace.dep_off tr (u + 1))
  in
  (* the first FIFO whose tail produces [u], else the first empty one *)
  let rec steer u i =
    if i = nfifo then empty 0
    else if tail_matches u fifos.(i) then i
    else steer u (i + 1)
  and empty i =
    if i = nfifo then -1 else if Ring.is_empty fifos.(i) then i else empty (i + 1)
  in
  let try_dispatch u =
    let i = steer u 0 in
    if i < 0 then false
    else begin
      Ring.push fifos.(i) u;
      true
    end
  in
  let fus = cfg.Config.fus_per_cluster in
  let cycle () =
    for i = 0 to nfifo - 1 do
      let f = fifos.(i) in
      let budget = ref fus in
      let blocked = ref false in
      while (not !blocked) && !budget > 0 && not (Ring.is_empty f) do
        let u = Ring.peek f in
        if issuable m u then begin
          ignore (Ring.pop f);
          Machine.do_issue m u;
          decr budget
        end
        else blocked := true
      done
    done
  in
  let occupancy () = Array.fold_left (fun acc f -> acc + Ring.length f) 0 fifos in
  { try_dispatch; cycle; occupancy }

(* ------------------------------------------------------------------ *)

let ooo m =
  let cfg = Machine.cfg m in
  (* each scheduler is an unordered window; selection is oldest-first *)
  let scheds =
    Array.init cfg.Config.clusters (fun _ ->
        Ring.create ~capacity:cfg.Config.cluster_entries)
  in
  let nclust = Array.length scheds in
  let rr = ref 0 in
  (* round-robin over schedulers with space, from [rr]: distributes load
     like the paper's distributed 32-entry schedulers *)
  let rec place u k =
    if k = nclust then false
    else
      let idx = !rr + k in
      let idx = if idx >= nclust then idx - nclust else idx in
      let f = scheds.(idx) in
      if Ring.is_full f then place u (k + 1)
      else begin
        Ring.push f u;
        Machine.note_resident m u idx;
        rr := (if idx + 1 >= nclust then 0 else idx + 1);
        true
      end
  in
  let try_dispatch u = place u 0 in
  let fus = cfg.Config.fus_per_cluster in
  let cycle () =
    (* Oldest-ready-first selection in a single pass: entries sit in
       dispatch (age) order, and nothing becomes newly issuable within a
       cycle — wakeups land at [begin_cycle] and issuing only consumes
       ports — so an entry found not issuable need not be reconsidered
       after later issues this cycle. The machine's [ready_in] count
       bounds the scan: once every register-ready entry has been examined
       (issued or found blocked on memory / ports), the window tail
       cannot issue and the scan stops. *)
    for ci = 0 to nclust - 1 do
      let f = scheds.(ci) in
      let budget = ref fus in
      let ready_left = ref (Machine.ready_in m ci) in
      let i = ref 0 in
      while !budget > 0 && !ready_left > 0 && !i < Ring.length f do
        let u = Ring.get f !i in
        if Machine.reg_ready m u then begin
          decr ready_left;
          if
            Machine.mem_ready m u <> Machine.Mem_blocked
            && Machine.can_issue_ports m u
          then begin
            ignore (Ring.remove_at f !i);
            Machine.do_issue m u;
            decr budget
          end
          else incr i
        end
        else incr i
      done
    done
  in
  let occupancy () = Array.fold_left (fun acc f -> acc + Ring.length f) 0 scheds in
  { try_dispatch; cycle; occupancy }

(* ------------------------------------------------------------------ *)

(* The braid core's mutable state, a record so that its completion
   calendar drains through a top-level handler. *)
type braid_state = {
  beus : Ring.t array;  (* each BEU's FIFO *)
  mutable target : int;  (* BEU receiving the braid in dispatch; -1 = none *)
  mutable in_flight : int;  (* issued, not yet complete *)
  leaves : Calq.t;  (* per issue, the cycle it stops counting as in flight *)
}

let retire b (_ : int) = b.in_flight <- b.in_flight - 1

let braid m =
  let cfg = Machine.cfg m in
  let probe = Machine.probe m in
  let nbeu = cfg.Config.clusters in
  let b =
    {
      beus =
        Array.init nbeu (fun _ -> Ring.create ~capacity:cfg.Config.cluster_entries);
      target = -1;
      in_flight = 0;
      (* covers the longest completion latency, as the machine's own
         calendars do *)
      leaves = Calq.create ~horizon:512;
    }
  in
  (* A BEU is processing a braid while instructions of it remain in the
     FIFO awaiting issue; once drained onto the FUs the unit can accept
     the next braid (issued instructions keep their results flowing
     through the bypass/external paths). *)
  let rec first_free i =
    if i = nbeu then -1
    else if Ring.is_empty b.beus.(i) then i
    else first_free (i + 1)
  in
  let enter u i =
    Machine.set_beu m u i;
    Machine.note_resident m u i;
    Ring.push b.beus.(i) u
  in
  let try_dispatch u =
    if Trace.braid_start (Machine.trace m) u then begin
      (* close the previous braid; claim a free BEU *)
      let i = first_free 0 in
      if i < 0 then false
      else begin
        b.target <- i;
        enter u i;
        true
      end
    end
    else if b.target >= 0 && not (Ring.is_full b.beus.(b.target)) then begin
      enter u b.target;
      true
    end
    else false
  in
  let fus = cfg.Config.fus_per_cluster in
  (* the head window; the whole queue for the rejected §5.1 out-of-order
     BEU variant *)
  let window = if cfg.Config.beu_out_of_order then max_int else cfg.Config.sched_window in
  let cycle () =
    let now = Machine.now m in
    Calq.drain b.leaves now retire b;
    (* Single pass over each BEU's head window, skipping BEUs and window
       tails with no register-ready entry as the ooo core does: nothing
       becomes newly issuable within a cycle, so entries skipped as not
       issuable stay skipped while later entries — including those
       sliding into the window as issues shorten the queue — are still
       considered. *)
    for bi = 0 to nbeu - 1 do
      let f = b.beus.(bi) in
      let budget = ref fus in
      let ready_left = ref (Machine.ready_in m bi) in
      let i = ref 0 in
      while
        !budget > 0 && !ready_left > 0 && !i < Int.min window (Ring.length f)
      do
        let u = Ring.get f !i in
        if Machine.reg_ready m u then begin
          decr ready_left;
          if
            Machine.mem_ready m u <> Machine.Mem_blocked
            && Machine.can_issue_ports m u
          then begin
            Probe.on_beu_issue probe ~cycle:now ~pos:!i u;
            ignore (Ring.remove_at f !i);
            Machine.do_issue m u;
            (* a zero-latency issue still counts for the cycle it issues *)
            b.in_flight <- b.in_flight + 1;
            Calq.add b.leaves (Int.max (Machine.complete_cycle m u) (now + 1)) u;
            decr budget
          end
          else incr i
        end
        else incr i
      done
    done
  in
  let occupancy () =
    Array.fold_left (fun acc f -> acc + Ring.length f) b.in_flight b.beus
  in
  { try_dispatch; cycle; occupancy }

(* ------------------------------------------------------------------ *)

(* CG-OoO (arXiv 1606.01607): dispatch steers whole basic blocks — the
   braid pass's block leaders (offset 0) mark the boundaries — to a free
   block window. Windows are selected out of order relative to each other,
   oldest allocated block first, while instructions inside a window issue
   strictly in order from a [block_head_window]-entry head over a shared
   FU pool. Local (internal) values live inside the window; global
   (external) values go through the commit-released global file. *)
type block_window = {
  bw_fifo : Ring.t;
  mutable bw_age : int;  (* allocation order of the resident block *)
}

let cgooo m =
  let cfg = Machine.cfg m in
  let windows =
    Array.init cfg.Config.block_windows (fun _ ->
        {
          bw_fifo = Ring.create ~capacity:cfg.Config.cluster_entries;
          bw_age = -1;
        })
  in
  let nwin = Array.length windows in
  let next_age = ref 0 in
  (* window receiving the block currently in dispatch; -1 = none *)
  let target = ref (-1) in
  (* A window is free once its block has fully issued: like a drained BEU
     FIFO, issued instructions keep flowing through the FUs and files. *)
  let rec first_free i =
    if i = nwin then -1
    else if Ring.is_empty windows.(i).bw_fifo then i
    else first_free (i + 1)
  in
  let enter u i =
    Machine.set_beu m u i;
    Ring.push windows.(i).bw_fifo u
  in
  let try_dispatch u =
    (* A sampled trace window may open mid-block (offset <> 0 with no
       block in dispatch yet): the tail of the cut-off block is timed as
       a (short) block of its own, matching the braid-start promotion
       [Emulator.Compiled.trace_window] performs for the braid core. *)
    if (Trace.static (Machine.trace m) u).Trace.offset = 0 || !target < 0
    then begin
      (* block leader: close the previous block; claim a free window *)
      let i = first_free 0 in
      if i < 0 then false
      else begin
        windows.(i).bw_age <- !next_age;
        incr next_age;
        target := i;
        enter u i;
        true
      end
    end
    else if not (Ring.is_full windows.(!target).bw_fifo) then begin
      enter u !target;
      true
    end
    else false
  in
  let order = Array.init nwin Fun.id in
  let fus = cfg.Config.clusters * cfg.Config.fus_per_cluster in
  let cycle () =
    (* Oldest-block-first selection: rank the windows by allocation age
       (nwin is small; insertion sort on the reused index array allocates
       nothing), then let each window drain its strictly in-order head
       under the shared FU budget. Nothing becomes newly issuable within
       a cycle, so one pass per window suffices. *)
    for i = 1 to nwin - 1 do
      let v = order.(i) in
      let j = ref i in
      while !j > 0 && windows.(order.(!j - 1)).bw_age > windows.(v).bw_age do
        order.(!j) <- order.(!j - 1);
        decr j
      done;
      order.(!j) <- v
    done;
    let budget = ref fus in
    for k = 0 to nwin - 1 do
      let w = windows.(order.(k)) in
      let issued_here = ref 0 in
      let blocked = ref false in
      while
        (not !blocked)
        && !budget > 0
        && !issued_here < cfg.Config.block_head_window
        && not (Ring.is_empty w.bw_fifo)
      do
        let u = Ring.peek w.bw_fifo in
        if issuable m u then begin
          ignore (Ring.pop w.bw_fifo);
          Machine.do_issue m u;
          incr issued_here;
          decr budget
        end
        else blocked := true
      done
    done
  in
  let occupancy () =
    Array.fold_left (fun acc w -> acc + Ring.length w.bw_fifo) 0 windows
  in
  { try_dispatch; cycle; occupancy }

let create m =
  match (Machine.cfg m).Config.kind with
  | Config.In_order -> in_order m
  | Config.Dep_steer -> dep_steer m
  | Config.Ooo -> ooo m
  | Config.Braid_exec -> braid m
  | Config.Cgooo -> cgooo m

let try_dispatch t u = t.try_dispatch u
let cycle t = t.cycle ()
let occupancy t = t.occupancy ()

(* The per-run observer behind a default-off value (see probe.mli). The
   [t = state option] representation keeps the disabled path to a single
   pattern match per hook. *)

module Tracer = Braid_obs.Tracer

type violation = {
  invariant : string;
  cycle : int;
  uid : int;
  detail : string;
}

type state = {
  cfg : Config.t;
  tracer : Tracer.t option;
  invariants : bool;
  mutable ext_alloc : int;  (* in-flight external-file allocations *)
  mutable last_commit_uid : int;
  mutable commit_uid : int array;
  mutable commit_pc : int array;
  mutable commits : int;
  mutable violations_rev : violation list;
  mutable violation_count : int;
  live_internal : (int, unit) Hashtbl.t array;
      (* per-BEU (or per-block-window) live internal-register indices;
         empty array for conventional cores (no internal file to track) *)
  last_issue_uid : int array;
      (* cgooo: last uid issued from each block window (-1 = none); issue
         within a window must be strictly in dispatch order *)
  unissued : Ring.t array;
      (* armed monitor on a braid core with in-order BEUs: each BEU's
         dispatched, unissued uids, oldest first, so an issue's FIFO
         position is the monitor's own count; empty array otherwise *)
  mutable issues : int array;
      (* armed monitor: [issue_stride] ints per uid, the facts of its
         issue ([issue_at] = max_int until then) and of its static record
         ([static_at]), so producers of any age can be checked whatever
         the machine, or a stream's window, still holds of them *)
}

type t = state option

let issue_stride = 5
let issue_at = 0
let complete_at = 1
let visible_at = 2
let beu_at = 3
let static_at = 4 (* [(braid_id + 1) lsl 2 lor writes_int lsl 1 lor writes_ext] *)

let max_recorded = 200
let off = None

let create ?tracer ?(invariants = true) (cfg : Config.t) =
  let beus =
    match cfg.Config.kind with
    | Config.Braid_exec -> max 1 cfg.Config.clusters
    | Config.Cgooo -> max 1 cfg.Config.block_windows
    | _ -> 0
  in
  let windows =
    match cfg.Config.kind with
    | Config.Cgooo -> max 1 cfg.Config.block_windows
    | _ -> 0
  in
  let fifos =
    if invariants && cfg.Config.kind = Config.Braid_exec && not cfg.Config.beu_out_of_order
    then beus
    else 0
  in
  Some
    {
      cfg;
      tracer;
      invariants;
      ext_alloc = 0;
      last_commit_uid = -1;
      commit_uid = Array.make 1024 0;
      commit_pc = Array.make 1024 0;
      commits = 0;
      violations_rev = [];
      violation_count = 0;
      live_internal = Array.init beus (fun _ -> Hashtbl.create 16);
      last_issue_uid = Array.make windows (-1);
      unissued =
        Array.init fifos (fun _ -> Ring.create ~capacity:cfg.Config.cluster_entries);
      issues = (if invariants then Array.make (1024 * issue_stride) max_int else [||]);
    }

let report t ~invariant ~cycle ~uid detail =
  match t with
  | None -> ()
  | Some s ->
      s.violation_count <- s.violation_count + 1;
      if s.violation_count <= max_recorded then
        s.violations_rev <- { invariant; cycle; uid; detail } :: s.violations_rev

let violations = function None -> [] | Some s -> List.rev s.violations_rev
let violation_count = function None -> 0 | Some s -> s.violation_count
let committed = function None -> [||] | Some s -> Array.sub s.commit_uid 0 s.commits
let committed_pcs = function None -> [||] | Some s -> Array.sub s.commit_pc 0 s.commits

let pp_violation fmt v =
  Format.fprintf fmt "[%s] cycle %d, instr %d: %s" v.invariant v.cycle v.uid
    v.detail

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let record s ev = match s.tracer with None -> () | Some tr -> Tracer.record tr ev

let stage s ~cycle ~uid ~track stage =
  record s (Tracer.Stage { cycle; uid; stage; track })

let internal_reads (ins : Instr.t) =
  List.fold_left
    (fun n (r : Reg.t) -> if r.Reg.space = Reg.Intern then n + 1 else n)
    0 (Instr.uses ins)

let check_bits t s ~cycle tr uid =
  let e = Trace.static tr uid in
  let ins = e.Trace.instr in
  let braid_start = Trace.braid_start tr uid in
  let bad invariant detail = report t ~invariant ~cycle ~uid detail in
  if e.Trace.writes_int <> Instr.writes_internal ins then
    bad "bits.I" "writes_int flag disagrees with the instruction's I bit";
  if e.Trace.writes_ext <> Instr.writes_external ins then
    bad "bits.E" "writes_ext flag disagrees with the instruction's E bit";
  if braid_start <> ins.Instr.annot.Instr.braid_start then
    bad "bits.S" "braid_start flag disagrees with the instruction's S bit";
  if e.Trace.ext_src_reads <> Instr.reads_external_count ins then
    bad "bits.T" "external source count disagrees with the T bits";
  let int_reads = internal_reads ins in
  if e.Trace.int_src_reads <> int_reads then
    bad "bits.T" "internal source count disagrees with the T bits";
  if Config.Core_kind.braid_binary s.cfg.Config.kind then begin
    if braid_start && e.Trace.braid_id < 0 then
      bad "bits.S" "S bit set on an instruction outside any braid"
  end
  else if e.Trace.writes_int || int_reads > 0 then
    bad "bits.internal"
      "internal register reached a conventional (non-braid) binary"

let[@inline never] on_fetch_armed t tr ~cycle uid =
  match t with
  | None -> ()
  | Some s ->
      if s.invariants then check_bits t s ~cycle tr uid;
      stage s ~cycle ~uid ~track:(-1) Tracer.Fetch

let[@inline never] on_icache_miss_armed t ~cycle ~lat =
  match t with
  | None -> ()
  | Some s ->
      record s
        (Tracer.Span { name = "L1I miss"; cat = "cache"; track = -1; start = cycle; dur = lat })

let[@inline never] on_stall_armed t ~cycle reason =
  match t with
  | None -> ()
  | Some s -> record s (Tracer.Stall { cycle; track = -1; reason })

let[@inline never] on_dispatch_armed t tr ~cycle ~beu uid =
  match t with
  | None -> ()
  | Some s ->
      if (Trace.static tr uid).Trace.writes_ext then begin
        s.ext_alloc <- s.ext_alloc + 1;
        if s.invariants && s.ext_alloc > s.cfg.Config.ext_regs then
          report t ~invariant:"extfile.capacity" ~cycle ~uid
            (Printf.sprintf
               "%d in-flight external values exceed the %d-entry file"
               s.ext_alloc s.cfg.Config.ext_regs)
      end;
      (* An S-bit instruction opens a fresh braid on its BEU: every internal
         value of the previous braid is architecturally dead here. (Braid
         core only: a BEU holds one braid at a time, so the previous braid
         has fully issued by dispatch. A cgooo block window can still hold
         unissued instructions of the previous braid, so the live set is
         cleared at issue instead — see [check_issue].) *)
      if
        Trace.braid_start tr uid
        && s.cfg.Config.kind = Config.Braid_exec
        && beu >= 0
        && beu < Array.length s.live_internal
      then Hashtbl.reset s.live_internal.(beu);
      if beu >= 0 && beu < Array.length s.unissued then begin
        let f = s.unissued.(beu) in
        if Ring.is_full f then
          report t ~invariant:"beu.capacity" ~cycle ~uid
            (Printf.sprintf "dispatched to BEU %d, which holds %d unissued entries"
               beu (Ring.length f))
        else Ring.push f uid
      end;
      stage s ~cycle ~uid ~track:beu Tracer.Dispatch

let[@inline never] on_ext_release_armed t ~cycle ~uid =
  match t with
  | None -> ()
  | Some s ->
      s.ext_alloc <- s.ext_alloc - 1;
      if s.invariants && s.ext_alloc < 0 then
        report t ~invariant:"extfile.double-release" ~cycle ~uid
          "more external-file releases than allocations"

(* The monitor's own record of [u]'s issue. *)
let note_issue s tr ~cycle ~lat ~visible ~beu u =
  let i = u * issue_stride in
  if i >= Array.length s.issues then begin
    let a = Array.make (Int.max (i + issue_stride) (2 * Array.length s.issues)) max_int in
    Array.blit s.issues 0 a 0 (Array.length s.issues);
    s.issues <- a
  end;
  s.issues.(i + issue_at) <- cycle;
  s.issues.(i + complete_at) <- cycle + lat;
  s.issues.(i + visible_at) <- visible;
  s.issues.(i + beu_at) <- beu;
  let e = Trace.static tr u in
  s.issues.(i + static_at) <-
    ((e.Trace.braid_id + 1) lsl 2)
    lor (Bool.to_int e.Trace.writes_int lsl 1)
    lor Bool.to_int e.Trace.writes_ext

(* Dep-visibility and cross-braid checks at issue time, against the
   monitor's record of each producer. *)
let check_wakeup t s tr ~cycle ~beu u =
  let e = Trace.event tr u in
  let r = s.issues in
  Array.iter
    (fun (p, via) ->
      let i = p * issue_stride in
      if r.(i + issue_at) = max_int then
        report t ~invariant:"wakeup.premature" ~cycle ~uid:u
          (Printf.sprintf "consumes producer %d which has not issued" p)
      else begin
        (* the external copy, unless the producer has none or an
           internal read finds the value in its internal register *)
        let ps = r.(i + static_at) in
        let p_writes_ext = ps land 1 <> 0 and p_writes_int = ps land 2 <> 0 in
        let visible =
          if p_writes_ext && not (via && p_writes_int) then
            r.(i + visible_at)
          else r.(i + complete_at)
        in
        if visible > cycle then
          report t ~invariant:"wakeup.premature" ~cycle ~uid:u
            (Printf.sprintf
               "reads producer %d before its value is visible (cycle %d)" p
               visible);
        (* §5.2: an external value reaches another cluster of BEUs
           [inter_cluster_latency] cycles after it is visible *)
        let size = s.cfg.Config.beu_cluster_size in
        let pbeu = r.(i + beu_at) in
        if
          (not via) && p_writes_ext && size > 0
          && s.cfg.Config.kind = Config.Braid_exec
          && pbeu / size <> beu / size
          && cycle < r.(i + visible_at) + s.cfg.Config.inter_cluster_latency
        then
          report t ~invariant:"wakeup.cross-cluster" ~cycle ~uid:u
            (Printf.sprintf "reads producer %d of BEU %d on BEU %d before \
                             it crosses clusters" p pbeu beu);
        (* internal (local) values are confined to the producing braid and
           its BEU / block window on both cores that carry them *)
        if via && Config.Core_kind.braid_binary s.cfg.Config.kind then begin
          if pbeu <> beu then
            report t ~invariant:"internal.cross-beu" ~cycle ~uid:u
              (Printf.sprintf "internal value of %d (BEU %d) read on BEU %d" p
                 pbeu beu);
          let braid_p = (ps lsr 2) - 1 in
          if braid_p <> e.Trace.braid_id then
            report t ~invariant:"internal.cross-braid" ~cycle ~uid:u
              (Printf.sprintf
                 "internal value crosses from braid %d (instr %d) to braid %d"
                 braid_p p e.Trace.braid_id)
        end
      end)
    e.Trace.deps

(* [u]'s position among its BEU's unissued uids, oldest first; -1 when
   the BEU does not hold it (its dispatch overfilled the BEU) *)
let rec fifo_pos f u i =
  if i = Ring.length f then -1 else if Ring.get f i = u then i else fifo_pos f u (i + 1)

(* An in-order BEU issues only from the [sched_window]-entry head of its
   FIFO. *)
let check_window t s ~cycle ~beu u =
  if beu >= 0 && beu < Array.length s.unissued then begin
    let f = s.unissued.(beu) in
    let pos = fifo_pos f u 0 in
    if pos >= 0 then begin
      ignore (Ring.remove_at f pos);
      if pos >= s.cfg.Config.sched_window then
        report t ~invariant:"beu.window" ~cycle ~uid:u
          (Printf.sprintf "issued from FIFO position %d beyond the %d-entry window"
             pos s.cfg.Config.sched_window)
    end
  end

let internal_def (ins : Instr.t) =
  List.find_opt (fun (r : Reg.t) -> r.Reg.space = Reg.Intern) (Instr.defs ins)

(* Bypass legality, cgooo in-block order and internal-RF occupancy. *)
let check_issue t s tr ~cycle ~beu ~bypassed uid =
  let e = Trace.static tr uid in
  if bypassed && not e.Trace.writes_ext then
    report t ~invariant:"bypass.internal" ~cycle ~uid
      "a value without the E bit rode the bypass network";
  (* cgooo in-block order: a block window issues strictly from its
     in-order head, so uids leaving one window only ever increase
     (blocks occupy a window one at a time, in dispatch order) *)
  if beu >= 0 && beu < Array.length s.last_issue_uid then begin
    if uid <= s.last_issue_uid.(beu) then
      report t ~invariant:"cgooo.block-order" ~cycle ~uid
        (Printf.sprintf
           "issued from block window %d after uid %d: in-block issue must be \
            in order"
           beu
           s.last_issue_uid.(beu));
    s.last_issue_uid.(beu) <- uid;
    (* a braid opening at issue: the previous braid in this window has
       fully issued, its internal values are architecturally dead *)
    if Trace.braid_start tr uid && beu < Array.length s.live_internal then
      Hashtbl.reset s.live_internal.(beu)
  end;
  if e.Trace.writes_int && beu >= 0 && beu < Array.length s.live_internal then
    match internal_def e.Trace.instr with
    | None -> ()
    | Some r ->
        if r.Reg.idx < 0 || r.Reg.idx >= Reg.num_internal then
          report t ~invariant:"internal.rf-range" ~cycle ~uid
            (Printf.sprintf "internal register index %d outside 0..%d"
               r.Reg.idx (Reg.num_internal - 1))
        else begin
          Hashtbl.replace s.live_internal.(beu) r.Reg.idx ();
          if Hashtbl.length s.live_internal.(beu) > Reg.num_internal then
            report t ~invariant:"internal.rf-capacity" ~cycle ~uid
              (Printf.sprintf
                 "%d live internal values on BEU %d exceed the %d-entry file"
                 (Hashtbl.length s.live_internal.(beu))
                 beu Reg.num_internal)
        end

let[@inline never] on_issue_armed t tr ~cycle ~lat ~visible ~beu ~bypassed u =
  match t with
  | None -> ()
  | Some s ->
      record s (Tracer.Exec { uid = u; track = beu; start = cycle; dur = lat });
      (* a load that went past the L1D is a miss fill in flight *)
      if
        (Trace.static tr u).Trace.is_load
        && lat > s.cfg.Config.mem.Config.l1d.Config.latency
      then
        record s
          (Tracer.Span
             { name = "L1D miss"; cat = "cache"; track = beu; start = cycle; dur = lat });
      if s.invariants then begin
        note_issue s tr ~cycle ~lat ~visible ~beu u;
        check_wakeup t s tr ~cycle ~beu u;
        check_window t s ~cycle ~beu u;
        check_issue t s tr ~cycle ~beu ~bypassed u
      end

let grow_commits s =
  if s.commits >= Array.length s.commit_uid then begin
    let n = 2 * Array.length s.commit_uid in
    let uid' = Array.make n 0 and pc' = Array.make n 0 in
    Array.blit s.commit_uid 0 uid' 0 s.commits;
    Array.blit s.commit_pc 0 pc' 0 s.commits;
    s.commit_uid <- uid';
    s.commit_pc <- pc'
  end

let[@inline never] on_commit_armed t tr ~cycle ~beu uid =
  match t with
  | None -> ()
  | Some s ->
      if s.invariants && uid <> s.last_commit_uid + 1 then
        report t ~invariant:"commit.order" ~cycle ~uid
          (Printf.sprintf "committed uid %d directly after uid %d" uid
             s.last_commit_uid);
      s.last_commit_uid <- uid;
      grow_commits s;
      s.commit_uid.(s.commits) <- uid;
      s.commit_pc.(s.commits) <- (Trace.static tr uid).Trace.pc;
      s.commits <- s.commits + 1;
      stage s ~cycle ~uid ~track:beu Tracer.Commit

(* What the cycle loop calls: with the probe off, one match. The armed
   bodies above stay out of line, so none of their code is inlined into
   the loop's hot paths. *)
let on_fetch t tr ~cycle uid =
  match t with None -> () | Some _ -> on_fetch_armed t tr ~cycle uid

let on_icache_miss t ~cycle ~lat =
  match t with None -> () | Some _ -> on_icache_miss_armed t ~cycle ~lat

let on_stall t ~cycle reason =
  match t with None -> () | Some _ -> on_stall_armed t ~cycle reason

let on_dispatch t tr ~cycle ~beu uid =
  match t with None -> () | Some _ -> on_dispatch_armed t tr ~cycle ~beu uid

let on_ext_release t ~cycle ~uid =
  match t with None -> () | Some _ -> on_ext_release_armed t ~cycle ~uid

let on_issue t tr ~cycle ~lat ~visible ~beu ~bypassed u =
  match t with
  | None -> ()
  | Some _ -> on_issue_armed t tr ~cycle ~lat ~visible ~beu ~bypassed u

let on_commit t tr ~cycle ~beu uid =
  match t with None -> () | Some _ -> on_commit_armed t tr ~cycle ~beu uid

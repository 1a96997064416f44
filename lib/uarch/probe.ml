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
}

type t = state option

type slots = {
  events : Trace.event array;
  issue_cycle : int array;
  complete_cycle : int array;
  int_visible : int array;
  ext_visible : int array;
  beu : int array;
}

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

let check_bits t s ~cycle (e : Trace.event) =
  let ins = e.Trace.instr in
  let uid = e.Trace.uid in
  let bad invariant detail = report t ~invariant ~cycle ~uid detail in
  if e.Trace.writes_int <> Instr.writes_internal ins then
    bad "bits.I" "writes_int flag disagrees with the instruction's I bit";
  if e.Trace.writes_ext <> Instr.writes_external ins then
    bad "bits.E" "writes_ext flag disagrees with the instruction's E bit";
  if e.Trace.braid_start <> ins.Instr.annot.Instr.braid_start then
    bad "bits.S" "braid_start flag disagrees with the instruction's S bit";
  if e.Trace.ext_src_reads <> Instr.reads_external_count ins then
    bad "bits.T" "external source count disagrees with the T bits";
  let int_reads = internal_reads ins in
  if e.Trace.int_src_reads <> int_reads then
    bad "bits.T" "internal source count disagrees with the T bits";
  if Config.Core_kind.braid_binary s.cfg.Config.kind then begin
    if e.Trace.braid_start && e.Trace.braid_id < 0 then
      bad "bits.S" "S bit set on an instruction outside any braid"
  end
  else if e.Trace.writes_int || int_reads > 0 then
    bad "bits.internal"
      "internal register reached a conventional (non-braid) binary"

let on_fetch t ~cycle (e : Trace.event) =
  match t with
  | None -> ()
  | Some s ->
      if s.invariants then check_bits t s ~cycle e;
      stage s ~cycle ~uid:e.Trace.uid ~track:(-1) Tracer.Fetch

let on_icache_miss t ~cycle ~lat =
  match t with
  | None -> ()
  | Some s ->
      record s
        (Tracer.Span { name = "L1I miss"; cat = "cache"; track = -1; start = cycle; dur = lat })

let on_stall t ~cycle reason =
  match t with
  | None -> ()
  | Some s -> record s (Tracer.Stall { cycle; track = -1; reason })

let on_dispatch t ~cycle ~beu (e : Trace.event) =
  match t with
  | None -> ()
  | Some s ->
      if e.Trace.writes_ext then begin
        s.ext_alloc <- s.ext_alloc + 1;
        if s.invariants && s.ext_alloc > s.cfg.Config.ext_regs then
          report t ~invariant:"extfile.capacity" ~cycle ~uid:e.Trace.uid
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
        e.Trace.braid_start
        && s.cfg.Config.kind = Config.Braid_exec
        && beu >= 0
        && beu < Array.length s.live_internal
      then Hashtbl.reset s.live_internal.(beu);
      stage s ~cycle ~uid:e.Trace.uid ~track:beu Tracer.Dispatch

let on_ext_release t ~cycle ~uid =
  match t with
  | None -> ()
  | Some s ->
      s.ext_alloc <- s.ext_alloc - 1;
      if s.invariants && s.ext_alloc < 0 then
        report t ~invariant:"extfile.double-release" ~cycle ~uid
          "more external-file releases than allocations"

(* Dep-visibility and cross-braid checks at issue time. *)
let check_wakeup t s (v : slots) ~cycle u (e : Trace.event) =
  Array.iter
    (fun (p, via) ->
      if v.issue_cycle.(p) = max_int then
        report t ~invariant:"wakeup.premature" ~cycle ~uid:u
          (Printf.sprintf "consumes producer %d which has not issued" p)
      else begin
        let visible = if via then v.int_visible.(p) else v.ext_visible.(p) in
        let visible =
          if visible = max_int then min v.int_visible.(p) v.ext_visible.(p)
          else visible
        in
        let visible =
          if visible = max_int then v.complete_cycle.(p) else visible
        in
        if visible > cycle then
          report t ~invariant:"wakeup.premature" ~cycle ~uid:u
            (Printf.sprintf
               "reads producer %d before its value is visible (cycle %d)" p
               visible);
        (* internal (local) values are confined to the producing braid and
           its BEU / block window on both cores that carry them *)
        if via && Config.Core_kind.braid_binary s.cfg.Config.kind then begin
          if v.beu.(p) <> v.beu.(u) then
            report t ~invariant:"internal.cross-beu" ~cycle ~uid:u
              (Printf.sprintf "internal value of %d (BEU %d) read on BEU %d" p
                 v.beu.(p) v.beu.(u));
          if v.events.(p).Trace.braid_id <> e.Trace.braid_id then
            report t ~invariant:"internal.cross-braid" ~cycle ~uid:u
              (Printf.sprintf
                 "internal value crosses from braid %d (instr %d) to braid %d"
                 v.events.(p).Trace.braid_id p e.Trace.braid_id)
        end
      end)
    e.Trace.deps

let internal_def (ins : Instr.t) =
  List.find_opt (fun (r : Reg.t) -> r.Reg.space = Reg.Intern) (Instr.defs ins)

(* Bypass legality, cgooo in-block order and internal-RF occupancy. *)
let check_issue t s ~cycle ~beu ~bypassed (e : Trace.event) =
  let uid = e.Trace.uid in
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
    if e.Trace.braid_start && beu < Array.length s.live_internal then
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

let on_issue t (v : slots) ~cycle ~lat ~bypassed u =
  match t with
  | None -> ()
  | Some s ->
      let e = v.events.(u) and beu = v.beu.(u) in
      record s (Tracer.Exec { uid = u; track = beu; start = cycle; dur = lat });
      (* a load that went past the L1D is a miss fill in flight *)
      if e.Trace.is_load && lat > s.cfg.Config.mem.Config.l1d.Config.latency then
        record s
          (Tracer.Span
             { name = "L1D miss"; cat = "cache"; track = beu; start = cycle; dur = lat });
      if s.invariants then begin
        check_wakeup t s v ~cycle u e;
        check_issue t s ~cycle ~beu ~bypassed e
      end

let on_beu_issue t ~cycle ~pos u =
  match t with
  | Some s
    when s.invariants
         && (not s.cfg.Config.beu_out_of_order)
         && pos >= s.cfg.Config.sched_window ->
      report t ~invariant:"beu.window" ~cycle ~uid:u
        (Printf.sprintf "issued from FIFO position %d beyond the %d-entry window"
           pos s.cfg.Config.sched_window)
  | _ -> ()

let grow_commits s =
  if s.commits >= Array.length s.commit_uid then begin
    let n = 2 * Array.length s.commit_uid in
    let uid' = Array.make n 0 and pc' = Array.make n 0 in
    Array.blit s.commit_uid 0 uid' 0 s.commits;
    Array.blit s.commit_pc 0 pc' 0 s.commits;
    s.commit_uid <- uid';
    s.commit_pc <- pc'
  end

let on_commit t ~cycle ~beu (e : Trace.event) =
  match t with
  | None -> ()
  | Some s ->
      if s.invariants && e.Trace.uid <> s.last_commit_uid + 1 then
        report t ~invariant:"commit.order" ~cycle ~uid:e.Trace.uid
          (Printf.sprintf "committed uid %d directly after uid %d" e.Trace.uid
             s.last_commit_uid);
      s.last_commit_uid <- e.Trace.uid;
      grow_commits s;
      s.commit_uid.(s.commits) <- e.Trace.uid;
      s.commit_pc.(s.commits) <- e.Trace.pc;
      s.commits <- s.commits + 1;
      stage s ~cycle ~uid:e.Trace.uid ~track:beu Tracer.Commit

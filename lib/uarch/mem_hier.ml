(* The memory system behind the L1s. Solo machines get [Private] — the
   historical L2 + main memory, accessed in exactly the order the old
   monolithic hierarchy used, so timing is byte-identical. CMP machines
   share one [Shared] backside: a common L2 with an invalidation-based
   MSI directory over the attached cores' L1Ds. *)

type coh_stats = {
  invalidations : int;
  downgrades : int;
  writebacks : int;
  remote_hits : int;
}

(* Directory entry per shared-L2 line. [owner >= 0] is a core holding the
   line Modified; [sharers] is a bitmask of cores that pulled the line
   in for reading (conservative: silent L1 evictions leave stale bits,
   which only cause harmless spurious invalidations later). Legality:
   an owned line has exactly its owner as sharer. *)
type line_state = { mutable owner : int; mutable sharers : int }

type shared = {
  s_l2 : Cache.t;
  s_memory_latency : int;
  s_dir : (int, line_state) Hashtbl.t;
  mutable s_l1ds : (int * Cache.t) list;  (* attached cores, for back-inval *)
  mutable s_invalidations : int;
  mutable s_downgrades : int;
  mutable s_writebacks : int;
  mutable s_remote_hits : int;
}

type t =
  | Private of { p_l2 : Cache.t; p_memory_latency : int }
  | Shared of shared

type hierarchy = {
  l1i : Cache.t;
  l1d : Cache.t;
  backside : t;
  core : int;
  perfect_icache : bool;
  perfect_dcache : bool;
}

let create_hierarchy (m : Config.memory) =
  {
    l1i = Cache.create m.Config.l1i;
    l1d = Cache.create m.Config.l1d;
    backside =
      Private
        {
          p_l2 = Cache.create m.Config.l2;
          p_memory_latency = m.Config.memory_latency;
        };
    core = 0;
    perfect_icache = m.Config.perfect_icache;
    perfect_dcache = m.Config.perfect_dcache;
  }

let create_shared ~memory_latency (l2 : Config.cache_geometry) =
  {
    s_l2 = Cache.create l2;
    s_memory_latency = memory_latency;
    s_dir = Hashtbl.create 4096;
    s_l1ds = [];
    s_invalidations = 0;
    s_downgrades = 0;
    s_writebacks = 0;
    s_remote_hits = 0;
  }

let attach ~core s (m : Config.memory) =
  let h =
    {
      l1i = Cache.create m.Config.l1i;
      l1d = Cache.create m.Config.l1d;
      backside = Shared s;
      core;
      perfect_icache = m.Config.perfect_icache;
      perfect_dcache = m.Config.perfect_dcache;
    }
  in
  if List.mem_assoc core s.s_l1ds then
    invalid_arg (Printf.sprintf "Mem_hier.attach: core %d already attached" core);
  s.s_l1ds <- s.s_l1ds @ [ (core, h.l1d) ];
  h

let dir_entry s line =
  match Hashtbl.find_opt s.s_dir line with
  | Some e -> e
  | None ->
      let e = { owner = -1; sharers = 0 } in
      Hashtbl.add s.s_dir line e;
      e

(* Drop every L1D line of [core] covered by the shared-L2 line holding
   [addr] (L1 lines may be finer than L2 lines). *)
let back_invalidate s ~core addr =
  match List.assoc_opt core s.s_l1ds with
  | None -> ()
  | Some l1d ->
      let l2b = Cache.line_bytes s.s_l2 in
      let base = Cache.line_of s.s_l2 addr * l2b in
      let step = Int.min l2b (Cache.line_bytes l1d) in
      let off = ref 0 in
      while !off < l2b do
        ignore (Cache.invalidate_line l1d (base + !off));
        off := !off + step
      done

(* Read miss reaching the shared L2: downgrade a remote Modified owner
   (it writes back and both keep the line Shared), then join the sharer
   set. The extra L2 latency models the owner's flush on the critical
   path of the requester. *)
let shared_read_miss_latency s ~core addr =
  let lat = ref (Cache.latency s.s_l2) in
  let hit = Cache.access s.s_l2 addr in
  if not hit then lat := !lat + s.s_memory_latency;
  let e = dir_entry s (Cache.line_of s.s_l2 addr) in
  let me = 1 lsl core in
  if hit && (e.sharers land lnot me <> 0 || (e.owner >= 0 && e.owner <> core))
  then s.s_remote_hits <- s.s_remote_hits + 1;
  if e.owner >= 0 && e.owner <> core then begin
    s.s_downgrades <- s.s_downgrades + 1;
    s.s_writebacks <- s.s_writebacks + 1;
    lat := !lat + Cache.latency s.s_l2;
    e.owner <- -1
  end;
  e.sharers <- e.sharers lor me;
  !lat

(* Write (store drain) reaching the directory: invalidate every remote
   sharer's L1D copy, flush a remote owner, take ownership. Drain
   latency is off the critical path (stores retire at commit), so only
   the traffic is counted. *)
let shared_write s ~core addr =
  let e = dir_entry s (Cache.line_of s.s_l2 addr) in
  let me = 1 lsl core in
  if e.owner >= 0 && e.owner <> core then s.s_writebacks <- s.s_writebacks + 1;
  let remote = e.sharers land lnot me in
  List.iter
    (fun (c, _) ->
      if remote land (1 lsl c) <> 0 then begin
        s.s_invalidations <- s.s_invalidations + 1;
        back_invalidate s ~core:c addr
      end)
    s.s_l1ds;
  e.owner <- core;
  e.sharers <- me

(* The private arm preserves the historical access order exactly: L1
   access, then on miss one L2 access, then main memory. *)
let through h l1 addr =
  let lat = ref (Cache.latency l1) in
  if not (Cache.access l1 addr) then
    (match h.backside with
    | Private p ->
        lat := !lat + Cache.latency p.p_l2;
        if not (Cache.access p.p_l2 addr) then lat := !lat + p.p_memory_latency
    | Shared s -> lat := !lat + shared_read_miss_latency s ~core:h.core addr);
  !lat

let instr_latency h addr = if h.perfect_icache then 1 else through h h.l1i addr

let data_latency h addr =
  if h.perfect_dcache then Cache.latency h.l1d else through h h.l1d addr

let drain_store h addr =
  if not h.perfect_dcache then begin
    (if not (Cache.access h.l1d addr) then
       match h.backside with
       | Private p -> ignore (Cache.access p.p_l2 addr)
       | Shared s -> ignore (Cache.access s.s_l2 addr));
    match h.backside with
    | Private _ -> ()
    | Shared s -> shared_write s ~core:h.core addr
  end

let warm_back h addr =
  match h.backside with
  | Private p -> Cache.warm p.p_l2 addr
  | Shared s -> Cache.warm s.s_l2 addr

let warm_instr h addr =
  Cache.warm h.l1i addr;
  warm_back h addr

let warm_l2 h addr = warm_back h addr

(* A repeat of the line just warmed only renews the newest stamp in its
   set, which leaves every set's LRU order as it was, and a warm counts
   nothing: one warm per run of addresses on one line is exact. *)
let warm_l2_lines h addrs =
  let l2 = match h.backside with Private p -> p.p_l2 | Shared s -> s.s_l2 in
  let last = ref (-1) in
  List.iter
    (fun addr ->
      let line = Cache.line_of l2 addr in
      if line <> !last then begin
        Cache.warm l2 addr;
        last := line
      end)
    addrs

let warm_data h addr =
  Cache.warm h.l1d addr;
  warm_back h addr

let l1i_stats h = Cache.stats h.l1i
let l1d_stats h = Cache.stats h.l1d

let l2_stats h =
  match h.backside with
  | Private p -> Cache.stats p.p_l2
  | Shared s -> Cache.stats s.s_l2

let is_shared h = match h.backside with Private _ -> false | Shared _ -> true
let shared_l2_stats s = Cache.stats s.s_l2

let coh_of_shared s =
  {
    invalidations = s.s_invalidations;
    downgrades = s.s_downgrades;
    writebacks = s.s_writebacks;
    remote_hits = s.s_remote_hits;
  }

(* Legality scan for the invariant monitor: a Modified line must be held
   by its owner alone — every other attached L1D must have dropped it,
   and the sharer set must be exactly the owner's bit. *)
let coherence_violations s =
  let problems = ref [] in
  Hashtbl.iter
    (fun line e ->
      if e.owner >= 0 then begin
        if e.sharers <> 1 lsl e.owner then
          problems :=
            Printf.sprintf
              "line %#x: owner %d (M) but sharer mask %#x is not exactly the \
               owner"
              line e.owner e.sharers
            :: !problems;
        let l2b = Cache.line_bytes s.s_l2 in
        let base = line * l2b in
        List.iter
          (fun (c, l1d) ->
            if c <> e.owner then begin
              let step = Int.min l2b (Cache.line_bytes l1d) in
              let off = ref 0 in
              while !off < l2b do
                if Cache.probe l1d (base + !off) then
                  problems :=
                    Printf.sprintf
                      "line %#x: owned M by core %d but core %d's L1D still \
                       holds %#x"
                      line e.owner c (base + !off)
                    :: !problems;
                off := !off + step
              done
            end)
          s.s_l1ds
      end)
    s.s_dir;
  List.rev !problems

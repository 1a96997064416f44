type static = {
  pc : int;
  block_id : int;
  offset : int;
  instr : Instr.t;
  is_load : bool;
  is_store : bool;
  is_cond_branch : bool;
  is_jump : bool;
  latency : int;
  writes_ext : bool;
  writes_int : bool;
  ext_src_reads : int;
  int_src_reads : int;
  braid_id : int;
}

type event = {
  uid : int;
  pc : int;
  block_id : int;
  offset : int;
  instr : Instr.t;
  deps : (int * bool) array;
  addr : int;
  is_load : bool;
  is_store : bool;
  is_cond_branch : bool;
  is_jump : bool;
  taken : bool;
  latency : int;
  writes_ext : bool;
  writes_int : bool;
  ext_src_reads : int;
  int_src_reads : int;
  braid_id : int;
  braid_start : bool;
  faulting : bool;
}

type stop_reason = Halted | Steps_exhausted

(* One static record per static instruction, shared by every trace of a
   program, plus one entry per dynamic instruction in each column. A
   dependence entry packs the producer uid and the via-internal bit as
   [uid lsl 1 lor via], so sorting entries as ints sorts them by
   (uid, via) — the order the trace has always given them. *)
type t = {
  proto : static array;
  sidx : int array;  (* static index per uid *)
  addr : int array;
  flags : Bytes.t;  (* [flag_taken], [flag_faulting], [flag_braid_start] *)
  dep_off : int array;  (* length + 1 CSR offsets into [deps] *)
  deps : int array;
  max_deps : int;  (* the most entries of any one instruction *)
  stop : stop_reason;
  program : Program.t;
  mutable warm_lines : int array option;  (* memo: {!warm_lines} *)
  mutable ext_readers : int array option;  (* memo: {!last_ext_readers} *)
}

let flag_taken = 1
let flag_faulting = 2
let flag_braid_start = 4

let flag_byte ~taken ~faulting ~braid_start =
  Char.unsafe_chr
    ((if taken then flag_taken else 0)
    lor (if faulting then flag_faulting else 0)
    lor if braid_start then flag_braid_start else 0)

let dep_key p via = (p lsl 1) lor Bool.to_int via
let length t = Array.length t.sidx
let stop t = t.stop
let program t = t.program
let static t u = Array.unsafe_get t.proto t.sidx.(u)
let addr t u = t.addr.(u)
let flag t u bit = Char.code (Bytes.get t.flags u) land bit <> 0
let taken t u = flag t u flag_taken
let faulting t u = flag t u flag_faulting
let braid_start t u = flag t u flag_braid_start
let dep_off t u = t.dep_off.(u)
let dep_uid t k = t.deps.(k) lsr 1
let dep_via t k = t.deps.(k) land 1 <> 0
let max_deps t = t.max_deps
let branch_of (s : static) = s.is_cond_branch || s.is_jump

let event t u =
  let s = static t u in
  let d0 = t.dep_off.(u) in
  {
    uid = u;
    pc = s.pc;
    block_id = s.block_id;
    offset = s.offset;
    instr = s.instr;
    deps =
      Array.init (t.dep_off.(u + 1) - d0) (fun k ->
          (dep_uid t (d0 + k), dep_via t (d0 + k)));
    addr = t.addr.(u);
    is_load = s.is_load;
    is_store = s.is_store;
    is_cond_branch = s.is_cond_branch;
    is_jump = s.is_jump;
    taken = taken t u;
    latency = s.latency;
    writes_ext = s.writes_ext;
    writes_int = s.writes_int;
    ext_src_reads = s.ext_src_reads;
    int_src_reads = s.int_src_reads;
    braid_id = s.braid_id;
    braid_start = braid_start t u;
    faulting = faulting t u;
  }

let of_events program (es : event array) =
  let n = Array.length es in
  let dep_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun u (e : event) ->
      if e.uid <> u then
        invalid_arg
          (Printf.sprintf "Trace.of_events: event %d has uid %d" u e.uid);
      Array.iter
        (fun (p, _) ->
          if p < 0 || p >= u then
            invalid_arg
              (Printf.sprintf "Trace.of_events: event %d depends on uid %d" u p))
        e.deps;
      dep_off.(u + 1) <- dep_off.(u) + Array.length e.deps)
    es;
  let deps =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (e : event) -> Array.map (fun (p, via) -> dep_key p via) e.deps)
            es))
  in
  {
    proto =
      Array.map
        (fun (e : event) ->
          {
            pc = e.pc;
            block_id = e.block_id;
            offset = e.offset;
            instr = e.instr;
            is_load = e.is_load;
            is_store = e.is_store;
            is_cond_branch = e.is_cond_branch;
            is_jump = e.is_jump;
            latency = e.latency;
            writes_ext = e.writes_ext;
            writes_int = e.writes_int;
            ext_src_reads = e.ext_src_reads;
            int_src_reads = e.int_src_reads;
            braid_id = e.braid_id;
          })
        es;
    sidx = Array.init n Fun.id;
    addr = Array.map (fun (e : event) -> e.addr) es;
    flags =
      Bytes.init n (fun u ->
          let e = es.(u) in
          flag_byte ~taken:e.taken ~faulting:e.faulting ~braid_start:e.braid_start);
    dep_off;
    deps;
    max_deps =
      Array.fold_left (fun w (e : event) -> max w (Array.length e.deps)) 0 es;
    stop = Halted;
    program;
    warm_lines = None;
    ext_readers = None;
  }

module Builder = struct
  type trace = t

  (* Columns sized for [capacity] instructions up front, grown by
     doubling past it and cut to size by [finish]; [dep_off.(n)] is
     where the open instruction's entries start. *)
  type t = {
    proto : static array;
    program : Program.t;
    mutable n : int;
    mutable sidx : int array;
    mutable addr : int array;
    mutable flags : Bytes.t;
    mutable dep_off : int array;
    mutable nd : int;  (* dependence entries, the open instruction's too *)
    mutable deps : int array;
    mutable max_deps : int;
  }

  let create proto program ~capacity =
    let cap = max 1 capacity in
    {
      proto;
      program;
      n = 0;
      sidx = Array.make cap 0;
      addr = Array.make cap 0;
      flags = Bytes.make cap '\000';
      dep_off = Array.make (cap + 1) 0;
      nd = 0;
      deps = Array.make cap 0;
      max_deps = 0;
    }

  let grown a len =
    let a' = Array.make (2 * len) 0 in
    Array.blit a 0 a' 0 len;
    a'

  (* insertion into the open instruction's sorted entries; an
     instruction reads at most a few registers *)
  let add_dep b p via =
    let key = dep_key p via in
    let start = b.dep_off.(b.n) in
    let i = ref b.nd in
    while !i > start && b.deps.(!i - 1) > key do
      decr i
    done;
    if not (!i > start && b.deps.(!i - 1) = key) then begin
      if b.nd = Array.length b.deps then b.deps <- grown b.deps b.nd;
      for j = b.nd downto !i + 1 do
        b.deps.(j) <- b.deps.(j - 1)
      done;
      b.deps.(!i) <- key;
      b.nd <- b.nd + 1
    end

  let push b s ~addr ~taken ~faulting =
    let n = b.n in
    if n = Array.length b.sidx then begin
      b.sidx <- grown b.sidx n;
      b.addr <- grown b.addr n;
      b.flags <- Bytes.extend b.flags 0 n;
      b.dep_off <- grown b.dep_off (n + 1)
    end;
    let st = b.proto.(s) in
    b.sidx.(n) <- s;
    b.addr.(n) <- addr;
    Bytes.set b.flags n
      (flag_byte ~taken:(taken || st.is_jump) ~faulting
         ~braid_start:st.instr.Instr.annot.Instr.braid_start);
    b.dep_off.(n + 1) <- b.nd;
    if b.nd - b.dep_off.(n) > b.max_deps then b.max_deps <- b.nd - b.dep_off.(n);
    b.n <- n + 1

  let fit a len = if Array.length a = len then a else Array.sub a 0 len

  let finish b stop : trace =
    let n = b.n in
    let flags =
      if Bytes.length b.flags = n then b.flags else Bytes.sub b.flags 0 n
    in
    if n > 0 && b.proto.(b.sidx.(0)).braid_id >= 0 then
      Bytes.set flags 0
        (Char.unsafe_chr (Char.code (Bytes.get flags 0) lor flag_braid_start));
    {
      proto = b.proto;
      sidx = fit b.sidx n;
      addr = fit b.addr n;
      flags;
      dep_off = fit b.dep_off (n + 1);
      deps = fit b.deps b.nd;
      max_deps = b.max_deps;
      stop;
      program = b.program;
      warm_lines = None;
      ext_readers = None;
    }
end

module Warm = struct
  type trace = t

  (* Two columns allocated once at [capacity] and overwritten by each
     fill; [proto] is the static table of the program last walked. *)
  type t = {
    mutable proto : static array;
    sidx : int array;
    value : int array;
    mutable n : int;
  }

  let create ~capacity =
    if capacity < 0 then invalid_arg "Trace.Warm.create: negative capacity";
    {
      proto = [||];
      sidx = Array.make capacity 0;
      value = Array.make capacity 0;
      n = 0;
    }

  let capacity w = Array.length w.sidx
  let length w = w.n

  let outside w u =
    invalid_arg (Printf.sprintf "Trace.Warm: index %d outside [0, %d)" u w.n)

  (* [push] admits only static indices of [proto], so the reads below
     need no check past the entry's own *)
  let static w u =
    if u < 0 || u >= w.n then outside w u;
    Array.unsafe_get w.proto (Array.unsafe_get w.sidx u)

  let value w u =
    if u < 0 || u >= w.n then outside w u;
    Array.unsafe_get w.value u

  let reset w proto =
    w.proto <- proto;
    w.n <- 0

  let push w s v =
    let n = w.n in
    if n = Array.length w.sidx then invalid_arg "Trace.Warm.push: buffer full";
    if s < 0 || s >= Array.length w.proto then
      invalid_arg (Printf.sprintf "Trace.Warm.push: no static index %d" s);
    Array.unsafe_set w.sidx n s;
    Array.unsafe_set w.value n v;
    w.n <- n + 1

  let of_trace (t : trace) =
    let n = Array.length t.sidx in
    let w = create ~capacity:n in
    reset w t.proto;
    for u = 0 to n - 1 do
      let s = t.proto.(t.sidx.(u)) in
      push w t.sidx.(u)
        (if s.is_load || s.is_store then t.addr.(u)
         else if s.is_cond_branch then Bool.to_int (taken t u)
         else 0)
    done;
    w
end

let warm_lines t =
  match t.warm_lines with
  | Some a -> a
  | None ->
      (* distinct 64-byte instruction lines in first-touch order (the
         order matters: cache warm-up replays them against LRU state),
         deduplicated on a table with one entry per static line *)
      let top = Array.fold_left (fun m (s : static) -> max m s.pc) 0 t.proto in
      let seen = Bytes.make ((top lsr 6) + 1) '\000' in
      let acc = ref [] in
      Array.iter
        (fun i ->
          let line = t.proto.(i).pc lsr 6 in
          if Bytes.get seen line = '\000' then begin
            Bytes.set seen line '\001';
            acc := (line lsl 6) :: !acc
          end)
        t.sidx;
      let a = Array.of_list (List.rev !acc) in
      t.warm_lines <- Some a;
      a

let last_ext_readers t =
  match t.ext_readers with
  | Some a -> a
  | None ->
      (* readers ascend, so the last one written is the highest *)
      let a = Array.make (length t) (-1) in
      for u = 0 to length t - 1 do
        for k = t.dep_off.(u) to t.dep_off.(u + 1) - 1 do
          if not (dep_via t k) then a.(dep_uid t k) <- u
        done
      done;
      t.ext_readers <- Some a;
      a

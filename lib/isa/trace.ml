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

(* Columns live off the OCaml heap, 32-bit where the values fit: the GC
   neither scans nor copies them, and nothing initialises a column its
   producer is about to write. Reads and writes go through the helpers
   below, whose element kind is fixed, so ocamlopt compiles each to an
   inline load or store and no int32 is boxed. *)
type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let i32 n : i32 = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
let ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let get32 (a : i32) i = Int32.to_int (Bigarray.Array1.get a i)
let set32 (a : i32) i v = Bigarray.Array1.set a i (Int32.of_int v)

type readers = i32

(* One static record per static instruction, shared by every trace of a
   program, plus one entry per dynamic instruction in each column. A
   dependence entry packs the producer uid and the via-internal bit as
   [uid lsl 1 lor via], so sorting entries as ints sorts them by
   (uid, via) — the order the trace has always given them — and a uid
   below 2^30 keeps the entry a non-negative int32. *)
type t = {
  proto : static array;
  sidx : i32;  (* static index per uid *)
  addr : ints;
  flags : Bytes.t;  (* [flag_taken], [flag_faulting], [flag_braid_start] *)
  dep_off : i32;  (* length + 1 CSR offsets into [deps] *)
  deps : i32;
  max_deps : int;  (* the most entries of any one instruction *)
  stop : stop_reason;
  program : Program.t;
  warm_lines : int array;  (* {!warm_lines}, recorded while building *)
  mutable ext_readers : readers option;  (* memo: {!last_ext_readers} *)
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
let length t = Bigarray.Array1.dim t.sidx
let stop t = t.stop
let program t = t.program

(* [push] admits only static indices of [proto] *)
let static t u = Array.unsafe_get t.proto (get32 t.sidx u)
let addr t u = Bigarray.Array1.get t.addr u
let flag t u bit = Char.code (Bytes.get t.flags u) land bit <> 0
let taken t u = flag t u flag_taken
let faulting t u = flag t u flag_faulting
let braid_start t u = flag t u flag_braid_start
let dep_off t u = get32 t.dep_off u
let dep_uid t k = get32 t.deps k lsr 1
let dep_via t k = get32 t.deps k land 1 <> 0
let max_deps t = t.max_deps
let branch_of (s : static) = s.is_cond_branch || s.is_jump

let column_bytes t =
  Bigarray.Array1.size_in_bytes t.sidx
  + Bigarray.Array1.size_in_bytes t.addr
  + Bigarray.Array1.size_in_bytes t.dep_off
  + Bigarray.Array1.size_in_bytes t.deps
  + Bytes.length t.flags

let event t u =
  let s = static t u in
  let d0 = dep_off t u in
  {
    uid = u;
    pc = s.pc;
    block_id = s.block_id;
    offset = s.offset;
    instr = s.instr;
    deps =
      Array.init (dep_off t (u + 1) - d0) (fun k ->
          (dep_uid t (d0 + k), dep_via t (d0 + k)));
    addr = addr t u;
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

(* The most instructions a trace holds: a dependence entry packs a uid
   into 31 bits. *)
let max_length = 1 lsl 30

let too_long what n =
  invalid_arg
    (Printf.sprintf "Trace.%s: %d instructions; uids must stay below 2^30" what n)

(* The 64-byte instruction lines of [pcs] in first-touch order. *)
let first_touch_lines pcs =
  let top = Array.fold_left Int.max 0 pcs in
  let seen = Bytes.make ((top lsr 6) + 1) '\000' in
  let acc = ref [] in
  Array.iter
    (fun pc ->
      let line = pc lsr 6 in
      if Bytes.get seen line = '\000' then begin
        Bytes.set seen line '\001';
        acc := (line lsl 6) :: !acc
      end)
    pcs;
  Array.of_list (List.rev !acc)

let of_events program (es : event array) =
  let n = Array.length es in
  if n > max_length then too_long "of_events" n;
  let dep_off = i32 (n + 1) in
  set32 dep_off 0 0;
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
      set32 dep_off (u + 1) (get32 dep_off u + Array.length e.deps))
    es;
  let deps = i32 (get32 dep_off n) in
  let sidx = i32 n and addr = ints n in
  Array.iteri
    (fun u (e : event) ->
      set32 sidx u u;
      Bigarray.Array1.set addr u e.addr;
      Array.iteri
        (fun k (p, via) -> set32 deps (get32 dep_off u + k) (dep_key p via))
        e.deps)
    es;
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
    sidx;
    addr;
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
    warm_lines = first_touch_lines (Array.map (fun (e : event) -> e.pc) es);
    ext_readers = None;
  }

module Builder = struct
  type trace = t

  (* Columns allocated uninitialised for [cap] instructions, [deps] for
     [max_reads] entries of each, so the open instruction (uid [n]) always
     has room for its reads; a builder past [cap] doubles them, and
     [finish] cuts them to size with views. [dep_off.(n)] is where the
     open instruction's entries start. The first touch of each 64-byte
     instruction line is recorded as instructions are pushed. *)
  type t = {
    proto : static array;
    program : Program.t;
    max_reads : int;
    line : int array;  (* per static index: its instruction line *)
    seen : Bytes.t;  (* per line: touched yet *)
    mutable lines : int list;  (* touched line addresses, newest first *)
    mutable n : int;
    mutable cap : int;
    mutable sidx : i32;
    mutable addr : ints;
    mutable flags : Bytes.t;
    mutable dep_off : i32;
    mutable nd : int;  (* dependence entries, the open instruction's too *)
    mutable deps : i32;
    mutable max_deps : int;
  }

  (* Dependence entries for [cap] instructions, which [dep_off] must
     address as int32s. *)
  let deps_room cap max_reads =
    if cap > Int32.to_int Int32.max_int / Int.max 1 max_reads then
      invalid_arg
        (Printf.sprintf
           "Trace.Builder: %d instructions of up to %d reads overflow the \
            32-bit dependence offsets"
           cap max_reads);
    cap * max_reads

  let create proto program ~capacity ~max_reads =
    if capacity < 0 || max_reads < 0 then
      invalid_arg "Trace.Builder.create: negative capacity or max_reads";
    if capacity > max_length then too_long "Builder.create" capacity;
    let room = deps_room capacity max_reads in
    let line = Array.map (fun (s : static) -> s.pc lsr 6) proto in
    let dep_off = i32 (capacity + 1) in
    set32 dep_off 0 0;
    {
      proto;
      program;
      max_reads;
      line;
      seen = Bytes.make (Array.fold_left Int.max 0 line + 1) '\000';
      lines = [];
      n = 0;
      cap = capacity;
      sidx = i32 capacity;
      addr = ints capacity;
      flags = Bytes.create capacity;
      dep_off;
      nd = 0;
      deps = i32 room;
      max_deps = 0;
    }

  (* [fresh] holding the first [len] entries of [old] *)
  let copied fresh old len =
    Bigarray.Array1.blit (Bigarray.Array1.sub old 0 len)
      (Bigarray.Array1.sub fresh 0 len);
    fresh

  (* the cold path of [add_dep] and [push]: kept out of line, so the
     tracer loop they inline into stays small *)
  let[@inline never] grow b =
    if b.cap = max_length then too_long "Builder" (max_length + 1);
    let cap = Int.min max_length (Int.max 1 (2 * b.cap)) in
    b.sidx <- copied (i32 cap) b.sidx b.n;
    b.addr <- copied (ints cap) b.addr b.n;
    b.flags <- Bytes.extend b.flags 0 (cap - b.cap);
    b.dep_off <- copied (i32 (cap + 1)) b.dep_off (b.n + 1);
    b.deps <- copied (i32 (deps_room cap b.max_reads)) b.deps b.nd;
    b.cap <- cap

  (* insertion into the open instruction's sorted entries; an
     instruction reads at most a few registers *)
  let add_dep b p via =
    if b.n = b.cap then grow b;
    if p < 0 || p >= b.n then
      invalid_arg
        (Printf.sprintf "Trace.Builder.add_dep: uid %d is not older than %d" p b.n);
    let key = dep_key p via in
    let start = get32 b.dep_off b.n in
    let i = ref b.nd in
    while !i > start && get32 b.deps (!i - 1) > key do
      decr i
    done;
    if not (!i > start && get32 b.deps (!i - 1) = key) then begin
      if b.nd - start = b.max_reads then
        invalid_arg
          (Printf.sprintf "Trace.Builder.add_dep: uid %d reads more than %d producers"
             b.n b.max_reads);
      for j = b.nd downto !i + 1 do
        set32 b.deps j (get32 b.deps (j - 1))
      done;
      set32 b.deps !i key;
      b.nd <- b.nd + 1
    end

  let push b s ~addr flags =
    if flags land lnot 7 <> 0 then
      invalid_arg (Printf.sprintf "Trace.Builder.push: flag bits %#x" flags);
    if b.n = b.cap then grow b;
    let n = b.n in
    let line = b.line.(s) in
    if Bytes.unsafe_get b.seen line = '\000' then begin
      Bytes.unsafe_set b.seen line '\001';
      b.lines <- (line lsl 6) :: b.lines
    end;
    set32 b.sidx n s;
    Bigarray.Array1.set b.addr n addr;
    Bytes.set b.flags n (Char.unsafe_chr flags);
    set32 b.dep_off (n + 1) b.nd;
    let d = b.nd - get32 b.dep_off n in
    if d > b.max_deps then b.max_deps <- d;
    b.n <- n + 1

  let finish b stop : trace =
    let n = b.n in
    let flags =
      if Bytes.length b.flags = n then b.flags else Bytes.sub b.flags 0 n
    in
    if n > 0 && b.proto.(get32 b.sidx 0).braid_id >= 0 then
      Bytes.set flags 0
        (Char.unsafe_chr (Char.code (Bytes.get flags 0) lor flag_braid_start));
    {
      proto = b.proto;
      sidx = Bigarray.Array1.sub b.sidx 0 n;
      addr = Bigarray.Array1.sub b.addr 0 n;
      flags;
      dep_off = Bigarray.Array1.sub b.dep_off 0 (n + 1);
      deps = Bigarray.Array1.sub b.deps 0 b.nd;
      max_deps = b.max_deps;
      stop;
      program = b.program;
      warm_lines = Array.of_list (List.rev b.lines);
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
    let n = Bigarray.Array1.dim t.sidx in
    let w = create ~capacity:n in
    reset w t.proto;
    for u = 0 to n - 1 do
      let s = t.proto.(get32 t.sidx u) in
      push w (get32 t.sidx u)
        (if s.is_load || s.is_store then addr t u
         else if s.is_cond_branch then Bool.to_int (taken t u)
         else 0)
    done;
    w
end

let warm_lines t = t.warm_lines

let last_ext_readers t =
  match t.ext_readers with
  | Some a -> a
  | None ->
      (* readers ascend, so the last one written is the highest *)
      let a = i32 (length t) in
      Bigarray.Array1.fill a (-1l);
      for u = 0 to length t - 1 do
        for k = dep_off t u to dep_off t (u + 1) - 1 do
          if not (dep_via t k) then set32 a (dep_uid t k) u
        done
      done;
      t.ext_readers <- Some a;
      a

let last_ext_reader (a : readers) p = get32 a p
let no_readers = i32 0

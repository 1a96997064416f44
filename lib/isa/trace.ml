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

(* One static record per static instruction, shared by every trace of a
   program, plus one entry per dynamic instruction in each column. A
   dependence entry packs the producer uid, the release bit and the
   via-internal bit as [uid lsl 2 lor last lsl 1 lor via]. An
   instruction's entries are sorted as ints before any release bit is
   set, so they stay sorted by (uid, via), and a uid below 2^29 keeps the
   entry a non-negative int32.

   A stored trace keeps every instruction: [mask] and [dmask] are -1, so
   a column index is the uid or entry index itself. A stream keeps a
   window: its columns are rings of [mask + 1] uids and [dmask + 1]
   entries, read at [u land mask] and [k land dmask], and hold at most
   [mask] uids, so the CSR offsets of the kept uids and of the next one
   all fit. The kept uids are [lo, hi), their entries [klo, khi); a
   refill drops uids from the bottom and [fill] appends at the top. *)
type t = {
  proto : static array;
  program : Program.t;
  max_reads : int;  (* the most producers one instruction reads *)
  mask : int;
  dmask : int;
  mutable sidx : i32;  (* static index per uid *)
  mutable addr : ints;
  mutable flags : Bytes.t;  (* the [flag_*] bits below *)
  mutable dep_off : i32;  (* CSR offsets into [deps], absolute *)
  mutable deps : i32;
  mutable lo : int;
  mutable hi : int;
  mutable klo : int;
  mutable khi : int;
  length : int;
  stop : stop_reason;
  warm_lines : int array;  (* {!warm_lines} *)
  marked : bool;  (* the release bits are set *)
  fill : int -> unit;  (* a stream's tracer: append up to this uid *)
}

let flag_taken = 1
let flag_faulting = 2
let flag_braid_start = 4
let flag_no_ext_reader = 8

let flag_byte ~taken ~faulting ~braid_start =
  Char.unsafe_chr
    ((if taken then flag_taken else 0)
    lor (if faulting then flag_faulting else 0)
    lor if braid_start then flag_braid_start else 0)

let dep_key p via = (p lsl 2) lor Bool.to_int via
let last_bit = 2
let length t = t.length
let stop t = t.stop
let program t = t.program
let max_reads t = t.max_reads
let capacity t = if t.mask < 0 then max_int else t.mask + 1
let produced t = t.hi
let marked t = t.marked

let[@inline never] outside t what i lo hi =
  invalid_arg
    (Printf.sprintf "Trace: %s %d outside the kept window [%d, %d) of %d" what i
       lo hi t.length)

(* The column index of kept uid [u]: in range for a stored trace (whose
   columns are [length] long) and a stream (whose index is masked), so
   the reads below go unchecked. *)
let col t u = if u < t.lo || u >= t.hi then outside t "uid" u t.lo t.hi else u land t.mask

let sidx t u = Int32.to_int (Bigarray.Array1.unsafe_get t.sidx (col t u))

(* [push] admits only static indices of [proto] *)
let static t u = Array.unsafe_get t.proto (sidx t u)
let statics t = t.proto
let addr t u = Bigarray.Array1.unsafe_get t.addr (col t u)
let flag t u bit = Char.code (Bytes.unsafe_get t.flags (col t u)) land bit <> 0
let taken t u = flag t u flag_taken
let faulting t u = flag t u flag_faulting
let braid_start t u = flag t u flag_braid_start
let no_ext_reader t u = flag t u flag_no_ext_reader

let fetch t u =
  let c = col t u in
  (Int32.to_int (Bigarray.Array1.unsafe_get t.sidx c) lsl 8)
  lor Char.code (Bytes.unsafe_get t.flags c)

let dep_off t u =
  if u < t.lo || u > t.hi then outside t "uid" u t.lo (t.hi + 1)
  else Int32.to_int (Bigarray.Array1.unsafe_get t.dep_off (u land t.mask))

let entry t k =
  if k < t.klo || k >= t.khi then outside t "dependence entry" k t.klo t.khi
  else Int32.to_int (Bigarray.Array1.unsafe_get t.deps (k land t.dmask))

let entry_uid e = e lsr 2
let entry_via e = e land 1 <> 0
let entry_last e = e land last_bit <> 0
let dep_uid t k = entry_uid (entry t k)
let dep_via t k = entry_via (entry t k)
let dep_last t k = entry_last (entry t k)

(* A kept uid's entries, and the offset past them, are kept too: the
   kept uids and the next one's offsets fit the offset ring, and their
   entries the entry ring, so one check of [u] covers every read. *)
let deps_into t u buf =
  let c = col t u in
  let k0 = Int32.to_int (Bigarray.Array1.unsafe_get t.dep_off c) in
  let n =
    Int32.to_int (Bigarray.Array1.unsafe_get t.dep_off ((u + 1) land t.mask)) - k0
  in
  if n > Array.length buf then
    invalid_arg
      (Printf.sprintf "Trace.deps_into: uid %d has %d entries, the buffer %d" u n
         (Array.length buf));
  for i = 0 to n - 1 do
    Array.unsafe_set buf i
      (Int32.to_int (Bigarray.Array1.unsafe_get t.deps ((k0 + i) land t.dmask)))
  done;
  n

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
   into 29 bits. *)
let max_length = 1 lsl 29

let too_long what n =
  invalid_arg
    (Printf.sprintf "Trace.%s: %d instructions; uids must stay below 2^29" what n)

(* Dependence entries for [n] instructions of up to [max_reads] reads,
   which the CSR offsets must address as int32s. *)
let deps_room n max_reads =
  if n > Int32.to_int Int32.max_int / Int.max 1 max_reads then
    invalid_arg
      (Printf.sprintf
         "Trace.Builder: %d instructions of up to %d reads overflow the \
          32-bit dependence offsets"
         n max_reads);
  n * max_reads

(* A kept trace's release bits and first-touch lines, by one backward
   pass over its columns with one seen bit per uid: from the end, the
   first external (non-via) entry met for a producer is its last external
   read, a uid that no later entry has read externally has no external
   reader, and the last uid met on an instruction line is the line's
   first touch. Marks the bits in place and returns the lines in
   first-touch order. *)
let finish_kept proto ~sidx ~flags ~dep_off ~deps =
  let n = Bigarray.Array1.dim sidx in
  let seen = Bytes.make ((n lsr 3) + 1) '\000' in
  let seen_bit u = Char.code (Bytes.get seen (u lsr 3)) land (1 lsl (u land 7)) in
  let line = Array.map (fun (s : static) -> s.pc lsr 6) proto in
  let first = Array.make (Array.fold_left Int.max 0 line + 1) (-1) in
  for u = n - 1 downto 0 do
    (* [Builder.push] and [of_events] admit only static indices of [proto] *)
    Array.unsafe_set first (Array.unsafe_get line (get32 sidx u)) u;
    let f = Char.code (Bytes.get flags u) in
    let f' =
      if seen_bit u <> 0 then f land lnot flag_no_ext_reader
      else f lor flag_no_ext_reader
    in
    if f' <> f then Bytes.set flags u (Char.unsafe_chr f');
    for k = get32 dep_off u to get32 dep_off (u + 1) - 1 do
      let e = get32 deps k in
      let p = e lsr 2 in
      let last = e land 1 = 0 && seen_bit p = 0 in
      if last then
        Bytes.set seen (p lsr 3)
          (Char.unsafe_chr (Char.code (Bytes.get seen (p lsr 3)) lor (1 lsl (p land 7))));
      if last <> (e land last_bit <> 0) then set32 deps k (e lxor last_bit)
    done
  done;
  let touched = ref [] in
  Array.iteri (fun line u -> if u >= 0 then touched := (u, line lsl 6) :: !touched) first;
  Array.of_list (List.map snd (List.sort compare !touched))

(* A kept trace over these columns, [length] long. *)
let stored proto program ~max_reads ~sidx ~addr ~flags ~dep_off ~deps ~stop =
  let n = Bigarray.Array1.dim sidx in
  let warm_lines = finish_kept proto ~sidx ~flags ~dep_off ~deps in
  {
    proto;
    program;
    max_reads;
    mask = -1;
    dmask = -1;
    sidx;
    addr;
    flags;
    dep_off;
    deps;
    lo = 0;
    hi = n;
    klo = 0;
    khi = Bigarray.Array1.dim deps;
    length = n;
    stop;
    warm_lines;
    marked = true;
    fill = ignore;
  }

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
  stored
    (Array.map
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
       es)
    program
    ~max_reads:(Array.fold_left (fun w (e : event) -> Int.max w (Array.length e.deps)) 0 es)
    ~sidx ~addr
    ~flags:
      (Bytes.init n (fun u ->
           let e = es.(u) in
           flag_byte ~taken:e.taken ~faulting:e.faulting ~braid_start:e.braid_start))
    ~dep_off ~deps ~stop:Halted

module Builder = struct
  type trace = t

  (* The trace being built ([tr.hi] instructions pushed, [tr.khi]
     entries, the open instruction's too) and room for [cap] instructions
     and [cap * max_reads] entries, so the open instruction always has
     room for its reads. A stored builder past [cap] doubles its columns,
     and [finish] cuts them to size with views; a stream's builder writes
     the stream's rings, which its refills keep from overflowing, and
     never grows ([cap] is [max_int]). *)
  type t = { tr : trace; mutable cap : int }

  let create proto program ~capacity ~max_reads =
    if capacity < 0 || max_reads < 0 then
      invalid_arg "Trace.Builder.create: negative capacity or max_reads";
    if capacity > max_length then too_long "Builder.create" capacity;
    let room = deps_room capacity max_reads in
    let dep_off = i32 (capacity + 1) in
    set32 dep_off 0 0;
    {
      tr =
        {
          proto;
          program;
          max_reads;
          mask = -1;
          dmask = -1;
          sidx = i32 capacity;
          addr = ints capacity;
          flags = Bytes.create capacity;
          dep_off;
          deps = i32 room;
          lo = 0;
          hi = 0;
          klo = 0;
          khi = 0;
          length = 0;
          stop = Halted;
          warm_lines = [||];
          marked = false;
          fill = ignore;
        };
      cap = capacity;
    }

  let length b = b.tr.hi

  (* [fresh] holding the first [len] entries of [old] *)
  let copied fresh old len =
    Bigarray.Array1.blit (Bigarray.Array1.sub old 0 len)
      (Bigarray.Array1.sub fresh 0 len);
    fresh

  (* the cold path of [add_dep] and [push]: kept out of line, so the
     tracer loop they inline into stays small *)
  let[@inline never] grow b =
    if b.cap = max_length then too_long "Builder" (max_length + 1);
    let t = b.tr in
    let cap = Int.min max_length (Int.max 1 (2 * b.cap)) in
    t.sidx <- copied (i32 cap) t.sidx t.hi;
    t.addr <- copied (ints cap) t.addr t.hi;
    t.flags <- Bytes.extend t.flags 0 (cap - b.cap);
    t.dep_off <- copied (i32 (cap + 1)) t.dep_off (t.hi + 1);
    t.deps <- copied (i32 (deps_room cap t.max_reads)) t.deps t.khi;
    b.cap <- cap

  (* insertion into the open instruction's sorted entries; an
     instruction reads at most a few registers *)
  let add_dep b p via =
    if b.tr.hi = b.cap then grow b;
    let t = b.tr in
    let n = t.hi and dm = t.dmask in
    if p < 0 || p >= n then
      invalid_arg
        (Printf.sprintf "Trace.Builder.add_dep: uid %d is not older than %d" p n);
    let key = dep_key p via in
    let start = get32 t.dep_off (n land t.mask) in
    let i = ref t.khi in
    while !i > start && get32 t.deps ((!i - 1) land dm) > key do
      decr i
    done;
    if not (!i > start && get32 t.deps ((!i - 1) land dm) = key) then begin
      if t.khi - start = t.max_reads then
        invalid_arg
          (Printf.sprintf "Trace.Builder.add_dep: uid %d reads more than %d producers"
             n t.max_reads);
      for j = t.khi downto !i + 1 do
        set32 t.deps (j land dm) (get32 t.deps ((j - 1) land dm))
      done;
      set32 t.deps (!i land dm) key;
      t.khi <- t.khi + 1
    end

  let mark_last b p =
    let t = b.tr in
    let key = dep_key p false in
    let k = ref (get32 t.dep_off (t.hi land t.mask)) in
    while !k < t.khi && get32 t.deps (!k land t.dmask) land lnot last_bit <> key do
      incr k
    done;
    if !k = t.khi then
      invalid_arg
        (Printf.sprintf "Trace.Builder.mark_last: uid %d does not read uid %d externally"
           t.hi p);
    set32 t.deps (!k land t.dmask) (key lor last_bit)

  let push b s ~addr flags =
    if flags land lnot 15 <> 0 then
      invalid_arg (Printf.sprintf "Trace.Builder.push: flag bits %#x" flags);
    (* what keeps [static]'s and [fetch]'s readers of this index in range *)
    if s < 0 || s >= Array.length b.tr.proto then
      invalid_arg
        (Printf.sprintf "Trace.Builder.push: static index %d outside a table of %d" s
           (Array.length b.tr.proto));
    if b.tr.hi = b.cap then grow b;
    let t = b.tr in
    let n = t.hi in
    (* the braid core only accepts a stream whose first braid
       instruction claims a BEU *)
    let flags =
      if n = 0 && (Array.unsafe_get t.proto s).braid_id >= 0 then flags lor flag_braid_start
      else flags
    in
    let c = n land t.mask in
    set32 t.sidx c s;
    Bigarray.Array1.set t.addr c addr;
    Bytes.set t.flags c (Char.unsafe_chr flags);
    set32 t.dep_off ((n + 1) land t.mask) t.khi;
    t.hi <- n + 1

  let finish b stop : trace =
    let t = b.tr in
    let n = t.hi in
    stored t.proto t.program ~max_reads:t.max_reads
      ~sidx:(Bigarray.Array1.sub t.sidx 0 n)
      ~addr:(Bigarray.Array1.sub t.addr 0 n)
      ~flags:(if Bytes.length t.flags = n then t.flags else Bytes.sub t.flags 0 n)
      ~dep_off:(Bigarray.Array1.sub t.dep_off 0 (n + 1))
      ~deps:(Bigarray.Array1.sub t.deps 0 t.khi)
      ~stop
end

let rec pow2_at_least k x = if k >= x then k else pow2_at_least (2 * k) x

let stream proto program ~capacity ~max_reads ~length ~stop ~warm_lines ~marked
    produce =
  if capacity < 2 || capacity land (capacity - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Trace.stream: capacity %d is not a power of two above 1"
         capacity);
  if length > max_length then too_long "stream" length;
  ignore (deps_room length max_reads : int);
  let dcap = pow2_at_least 1 (deps_room capacity (Int.max 1 max_reads)) in
  let dep_off = i32 capacity in
  set32 dep_off 0 0;
  let sidx = i32 capacity and addr = ints capacity in
  let flags = Bytes.create capacity and deps = i32 dcap in
  let rec tr =
    {
      proto;
      program;
      max_reads;
      mask = capacity - 1;
      dmask = dcap - 1;
      sidx;
      addr;
      flags;
      dep_off;
      deps;
      lo = 0;
      hi = 0;
      klo = 0;
      khi = 0;
      length;
      stop;
      warm_lines;
      marked;
      fill = (fun upto -> produce b upto);
    }
  and b = { Builder.tr; cap = max_int }
  in
  tr

let refill t ~keep =
  if keep < t.lo || keep > t.hi then
    invalid_arg
      (Printf.sprintf "Trace.refill: uid %d outside the kept window [%d, %d]" keep
         t.lo t.hi);
  let upto = Int.min t.length (keep + t.mask) in
  if upto > t.hi then begin
    let lo = Int.max t.lo (upto - t.mask) in
    t.klo <- get32 t.dep_off (lo land t.mask);
    t.lo <- lo;
    t.fill upto
  end

module Warm = struct
  type trace = t

  let trace_sidx = sidx

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

  let statics w = w.proto

  let sidx w u =
    if u < 0 || u >= w.n then outside w u;
    Array.unsafe_get w.sidx u

  let value w u =
    if u < 0 || u >= w.n then outside w u;
    Array.unsafe_get w.value u

  let reset w proto =
    w.proto <- proto;
    w.n <- 0

  let push w s ~len v =
    let n = w.n in
    if len < 1 || n + len > Array.length w.sidx then
      invalid_arg
        (Printf.sprintf "Trace.Warm.push: %d entries at %d of %d" len n
           (Array.length w.sidx));
    if s < 0 || s + len > Array.length w.proto then
      invalid_arg
        (Printf.sprintf "Trace.Warm.push: no static indices %d..%d" s (s + len - 1));
    Array.unsafe_set w.sidx n s;
    Array.unsafe_set w.value n v;
    for j = 1 to len - 1 do
      Array.unsafe_set w.sidx (n + j) (s + j);
      Array.unsafe_set w.value (n + j) 0
    done;
    w.n <- n + len

  let of_trace (t : trace) =
    let n = t.length in
    let w = create ~capacity:n in
    reset w t.proto;
    for u = 0 to n - 1 do
      let i = trace_sidx t u in
      let s = t.proto.(i) in
      push w i ~len:1
        (if s.is_load || s.is_store then addr t u
         else if s.is_cond_branch then Bool.to_int (taken t u)
         else 0)
    done;
    w
end

let warm_lines t = t.warm_lines

type t = {
  sets : int;
  set_bits : int;  (* log2 sets when [sets] is a power of two, else -1 *)
  ways : int;
  line_bits : int;
  latency : int;
  tags : int array;  (* flat [set * ways + way], -1 = invalid *)
  stamps : int array;  (* LRU timestamps, same layout *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create (g : Config.cache_geometry) =
  let lines = g.Config.size_bytes / g.Config.line_bytes in
  let sets = Int.max 1 (lines / g.Config.ways) in
  {
    sets;
    set_bits = (if sets land (sets - 1) = 0 then log2 sets else -1);
    ways = g.Config.ways;
    line_bits = log2 g.Config.line_bytes;
    latency = g.Config.latency;
    tags = Array.make (sets * g.Config.ways) (-1);
    stamps = Array.make (sets * g.Config.ways) 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

(* A line's set and tag: a mask and a shift when the set count is a
   power of two, as on every preset *)
let set_of t line = if t.set_bits >= 0 then line land (t.sets - 1) else line mod t.sets
let tag_of t line = if t.set_bits >= 0 then line lsr t.set_bits else line / t.sets

(* The ways of a set lie in [tags] and [stamps], which hold [sets * ways]
   entries, so the scans read them unchecked. *)
let access_gen ~count t addr =
  let line = addr lsr t.line_bits in
  let tag = tag_of t line in
  t.tick <- t.tick + 1;
  let base = set_of t line * t.ways in
  let tags = t.tags and stamps = t.stamps in
  let way = ref (-1) in
  for w = base to base + t.ways - 1 do
    if Array.unsafe_get tags w = tag then way := w
  done;
  if !way >= 0 then begin
    Array.unsafe_set stamps !way t.tick;
    if count then t.hits <- t.hits + 1;
    true
  end
  else begin
    if count then t.misses <- t.misses + 1;
    (* evict LRU *)
    let victim = ref base in
    for w = base + 1 to base + t.ways - 1 do
      if Array.unsafe_get stamps w < Array.unsafe_get stamps !victim then victim := w
    done;
    Array.unsafe_set tags !victim tag;
    Array.unsafe_set stamps !victim t.tick;
    false
  end

let access t addr = access_gen ~count:true t addr

let warm t addr = ignore (access_gen ~count:false t addr)

let latency t = t.latency
let line_bytes t = 1 lsl t.line_bits
let line_of t addr = addr lsr t.line_bits

(* Coherence probes never touch LRU state or hit/miss statistics: a
   back-invalidation or a legality scan must be invisible to the timing
   of the probed core beyond the invalidation itself. *)
let find_way t addr =
  let line = addr lsr t.line_bits in
  let tag = tag_of t line in
  let base = set_of t line * t.ways in
  let way = ref (-1) in
  for w = base to base + t.ways - 1 do
    if t.tags.(w) = tag then way := w
  done;
  !way

let probe t addr = find_way t addr >= 0

let invalidate_line t addr =
  let w = find_way t addr in
  if w >= 0 then begin
    t.tags.(w) <- -1;
    t.stamps.(w) <- 0;
    true
  end
  else false

let hits t = t.hits
let misses t = t.misses
let stats c = (c.hits, c.misses)

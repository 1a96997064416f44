(* Calendar queue over int events: a power-of-two wheel of slots indexed
   by [cycle land mask]. The simulator schedules only a bounded distance
   ahead (max FU/memory latency plus port scans), so one slot holds
   entries of at most one cycle at a time; a collision between two live
   cycles doubles the wheel instead of corrupting the schedule.
   A slot keeps its first [inline] events in one flat array shared by the
   whole wheel, allocated once, and only a cycle with more events than
   that spills the rest into a growable array of the slot's own. Spill
   capacity is kept across drains, so stepping allocates nothing unless
   one cycle's events outnumber every earlier cycle's in that slot. *)

let inline = 16

type t = {
  mutable mask : int;  (* wheel size - 1; size is a power of two *)
  mutable store : int array;  (* slot [i]'s first events, from [i * inline] *)
  mutable spill : int array array;  (* slot [i]'s events past [inline] *)
  mutable len : int array;  (* used entries per slot *)
  mutable cycle : int array;  (* cycle a non-empty slot holds; -1 = empty *)
  mutable count : int;  (* scheduled entries over the whole wheel *)
  mutable out : int array;  (* the events of the cycle [take] last released *)
}

let round_pow2 n =
  let rec go v = if v >= n then v else go (v * 2) in
  go 1

let wheel t size =
  t.mask <- size - 1;
  t.store <- Array.make (size * inline) 0;
  t.spill <- Array.make size [||];
  t.len <- Array.make size 0;
  t.cycle <- Array.make size (-1);
  t.count <- 0

let create ~horizon =
  if horizon <= 0 then invalid_arg "Calq.create: horizon must be positive";
  let t =
    {
      mask = 0;
      store = [||];
      spill = [||];
      len = [||];
      cycle = [||];
      count = 0;
      out = Array.make inline 0;
    }
  in
  wheel t (round_pow2 horizon);
  t

let horizon t = t.mask + 1
let length t = t.count
let is_empty t = t.count = 0

(* The [j]th event of slot [i], of a wheel's arrays; typed, so the reads
   are int loads rather than generic array reads *)
let entry (store : int array) (spill : int array array) i j =
  if j < inline then store.((i * inline) + j) else spill.(i).(j - inline)

(* Slot [i] is [c land mask] for some cycle [c], so it indexes [len],
   [cycle] and [spill], and its first [inline] events lie in [store]:
   those accesses go unchecked. *)
let push_entry t i v =
  let n = Array.unsafe_get t.len i in
  if n < inline then Array.unsafe_set t.store ((i * inline) + n) v
  else begin
    let s = t.spill.(i) in
    let k = n - inline in
    if k = Array.length s then begin
      (* grow this slot's spill; capacity is kept for later cycles *)
      let ns = Array.make (Int.max inline (2 * k)) 0 in
      Array.blit s 0 ns 0 k;
      t.spill.(i) <- ns;
      ns.(k) <- v
    end
    else s.(k) <- v
  end;
  Array.unsafe_set t.len i (n + 1);
  t.count <- t.count + 1

(* Double the wheel until every scheduled cycle lands in its own slot.
   Entries carry no cycle of their own — the slot's [cycle] tag does — so
   re-adding is mechanical. *)
let rec add t c v =
  if c < 0 then invalid_arg "Calq.add: negative cycle";
  let i = c land t.mask in
  if Array.unsafe_get t.len i = 0 then begin
    Array.unsafe_set t.cycle i c;
    push_entry t i v
  end
  else if Array.unsafe_get t.cycle i = c then push_entry t i v
  else begin
    grow t;
    add t c v
  end

and grow t =
  let store = t.store and spill = t.spill and len = t.len and cycle = t.cycle in
  wheel t (2 * (t.mask + 1));
  for i = 0 to Array.length len - 1 do
    for j = 0 to len.(i) - 1 do
      add t cycle.(i) (entry store spill i j)
    done
  done

(* Copy cycle [c]'s events into [out], then release the slot: a handler
   may then schedule anything, even into the slot just released, without
   touching the events still to run. *)
let take t c =
  let i = c land t.mask in
  let n = Array.unsafe_get t.len i in
  if n > 0 && Array.unsafe_get t.cycle i = c then begin
    if n > Array.length t.out then t.out <- Array.make (2 * n) 0;
    let store = t.store and spill = t.spill and out = t.out in
    for j = 0 to n - 1 do
      Array.unsafe_set out j (entry store spill i j)
    done;
    Array.unsafe_set t.len i 0;
    Array.unsafe_set t.cycle i (-1);
    t.count <- t.count - n;
    n
  end
  else 0

let taken t j = t.out.(j)

let clear t =
  Array.fill t.len 0 (Array.length t.len) 0;
  Array.fill t.cycle 0 (Array.length t.cycle) (-1);
  t.count <- 0

(* Calendar queue over int events: a power-of-two wheel of growable int
   buckets indexed by [cycle land mask]. The simulator schedules only a
   bounded distance ahead (max FU/memory latency plus port scans), so one
   bucket holds entries of at most one cycle at a time; a collision between
   two live cycles doubles the wheel instead of corrupting the schedule.
   Bucket storage is retained across drains, so steady-state stepping
   allocates nothing. *)

type t = {
  mutable mask : int;  (* wheel size - 1; size is a power of two *)
  mutable bucket : int array array;
  mutable len : int array;  (* used entries per slot *)
  mutable cycle : int array;  (* cycle a non-empty slot holds; -1 = empty *)
  mutable count : int;  (* scheduled entries over the whole wheel *)
}

let round_pow2 n =
  let rec go v = if v >= n then v else go (v * 2) in
  go 1

let create ~horizon =
  if horizon <= 0 then invalid_arg "Calq.create: horizon must be positive";
  let size = round_pow2 horizon in
  {
    mask = size - 1;
    bucket = Array.make size [||];
    len = Array.make size 0;
    cycle = Array.make size (-1);
    count = 0;
  }

let horizon t = t.mask + 1
let length t = t.count
let is_empty t = t.count = 0

let push_entry t i v =
  let b = t.bucket.(i) in
  let n = t.len.(i) in
  if n = Array.length b then begin
    (* grow this bucket; capacity is kept for later cycles *)
    let nb = Array.make (max 4 (2 * n)) 0 in
    Array.blit b 0 nb 0 n;
    t.bucket.(i) <- nb;
    nb.(n) <- v
  end
  else b.(n) <- v;
  t.len.(i) <- n + 1;
  t.count <- t.count + 1

(* Double the wheel until every scheduled cycle lands in its own slot.
   Entries carry no cycle of their own — the slot's [cycle] tag does — so
   re-adding is mechanical. *)
let rec add t c v =
  if c < 0 then invalid_arg "Calq.add: negative cycle";
  let i = c land t.mask in
  if t.len.(i) = 0 then begin
    t.cycle.(i) <- c;
    push_entry t i v
  end
  else if t.cycle.(i) = c then push_entry t i v
  else begin
    grow t;
    add t c v
  end

and grow t =
  let old_bucket = t.bucket and old_len = t.len and old_cycle = t.cycle in
  let size = 2 * (t.mask + 1) in
  t.mask <- size - 1;
  t.bucket <- Array.make size [||];
  t.len <- Array.make size 0;
  t.cycle <- Array.make size (-1);
  t.count <- 0;
  Array.iteri
    (fun i b ->
      for j = 0 to old_len.(i) - 1 do
        add t old_cycle.(i) b.(j)
      done)
    old_bucket

let drain t c f x =
  let i = c land t.mask in
  let n = t.len.(i) in
  if n > 0 && t.cycle.(i) = c then begin
    let b = t.bucket.(i) in
    (* release the slot before the callbacks so [f] may schedule ahead
       (never for the cycle being drained) *)
    t.len.(i) <- 0;
    t.cycle.(i) <- -1;
    t.count <- t.count - n;
    for j = 0 to n - 1 do
      f x b.(j)
    done
  end

let clear t =
  Array.fill t.len 0 (Array.length t.len) 0;
  Array.fill t.cycle 0 (Array.length t.cycle) (-1);
  t.count <- 0

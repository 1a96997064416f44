(* An int buffer: stores are plain word writes (no [caml_modify]) and a
   vacated slot needs no placeholder, since an int retains nothing. *)
type t = {
  buf : int array;
  cap : int;  (* [Array.length buf], kept beside [head] and [len] *)
  mutable head : int;
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity 0; cap = capacity; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let is_full t = t.len = t.cap

(* [head < capacity] and [i <= capacity], so one conditional subtract
   replaces the division a [mod] would cost on every access. Each
   access below first checks its index against [len], so the slot it
   reads or writes lies in [buf]: the array accesses go unchecked. *)
let slot t i =
  let s = t.head + i in
  if s >= t.cap then s - t.cap else s

let push t x =
  if is_full t then failwith "Ring.push: full";
  Array.unsafe_set t.buf (slot t t.len) x;
  t.len <- t.len + 1

let pop t =
  if is_empty t then failwith "Ring.pop: empty";
  let x = Array.unsafe_get t.buf t.head in
  t.head <- slot t 1;
  t.len <- t.len - 1;
  x

let peek t =
  if is_empty t then failwith "Ring.peek: empty";
  Array.unsafe_get t.buf t.head

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.get: index out of range";
  Array.unsafe_get t.buf (slot t i)

(* Close the gap from whichever side holds fewer elements: the [i]
   elements before it move one slot tailward and the head advances, or
   the later ones move one slot headward. *)
let remove_at t i =
  if i < 0 || i >= t.len then invalid_arg "Ring.remove_at: index out of range";
  let b = t.buf in
  let x = Array.unsafe_get b (slot t i) in
  if i < t.len - 1 - i then begin
    for j = i downto 1 do
      Array.unsafe_set b (slot t j) (Array.unsafe_get b (slot t (j - 1)))
    done;
    t.head <- slot t 1
  end
  else begin
    for j = i to t.len - 2 do
      Array.unsafe_set b (slot t j) (Array.unsafe_get b (slot t (j + 1)))
    done
  end;
  t.len <- t.len - 1;
  x

type stage = Fetch | Dispatch | Issue | Complete | Commit

let stage_name = function
  | Fetch -> "fetch"
  | Dispatch -> "dispatch"
  | Issue -> "issue"
  | Complete -> "complete"
  | Commit -> "commit"

type event =
  | Stage of { cycle : int; uid : int; stage : stage; track : int }
  | Exec of { uid : int; track : int; start : int; dur : int }
  | Stall of { cycle : int; track : int; reason : string }
  | Span of { name : string; cat : string; track : int; start : int; dur : int }

type t = {
  buf : event option array;
  mutable next : int;  (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  { buf = Array.make capacity None; next = 0; len = 0; dropped = 0 }

let capacity t = Array.length t.buf
let length t = t.len
let dropped t = t.dropped

let record t ev =
  let cap = Array.length t.buf in
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.buf.(t.next) <- Some ev;
  t.next <- (t.next + 1) mod cap

let events t =
  let cap = Array.length t.buf in
  let start = (t.next - t.len + cap) mod cap in
  List.init t.len (fun i ->
      match t.buf.((start + i) mod cap) with Some e -> e | None -> assert false)

let track_of = function
  | Stage { track; _ } | Exec { track; _ } | Stall { track; _ } | Span { track; _ } ->
      track

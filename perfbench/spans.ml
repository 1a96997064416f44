(* In-memory span recorder for the traced pass.

   Spans are recorded by the benchmark around its own calls into the
   simulator's public functions; nothing inside the simulator is touched.
   Recording is mutex-guarded so jobs on a domain pool can record too.
   Spans stay in memory until [write] at the end of the pass. *)

type span = {
  id : int;
  name : string;  (** "<layer>.<what>"; the layer is the prefix before '.' *)
  parent : int option;
  req : int;  (** request id shared by every span of one request *)
  t0 : float;
  t1 : float;
  work : int;  (** instructions traced, cycles stepped, ...; 0 if none *)
}

type t = { lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next = 0; spans = [] }
let now = Unix.gettimeofday

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fresh t =
  locked t (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let push t s = locked t (fun () -> t.spans <- s :: t.spans)

(* [with_ t ?parent ~req name f] runs [f id] inside a span; [f] receives
   the span's id so nested calls can name it as their parent, and returns
   its result together with the span's work count. *)
let with_ t ?parent ~req name f =
  let id = fresh t in
  let t0 = now () in
  let v, work = f id in
  push t { id; name; parent; req; t0; t1 = now (); work };
  v

(* A span whose bounds were measured elsewhere (the serve pass rebuilds
   wait and service intervals from client-side timestamps). *)
let add t ?parent ~req ~t0 ~t1 name =
  let id = fresh t in
  push t { id; name; parent; req; t0; t1; work = 0 };
  id

let spans t = List.rev t.spans
let layer s = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name
let dur s = s.t1 -. s.t0

(* Self time: the span's duration minus the part of its interval that its
   children cover (children on parallel domains may overlap each other,
   so their union is taken, not their sum). *)
let self_times spans =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s -> Option.iter (fun p -> Hashtbl.add kids p s) s.parent)
    spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, s.t0) ivs
      in
      (s, dur s -. covered))
    spans

let write t path =
  let spans = spans t in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us x = Printf.sprintf "%.1f" ((x -. base) *. 1e6) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%s,\"parent\":%s,\"req\":%d,\"start_us\":%s,\"end_us\":%s,\"work\":%d}\n"
            (if i = 0 then " " else ",")
            s.id (Json.escape_string s.name)
            (match s.parent with Some p -> string_of_int p | None -> "null")
            s.req (us s.t0) (us s.t1) s.work)
        spans;
      output_string oc "]\n")

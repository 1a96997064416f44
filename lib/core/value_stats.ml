type t = {
  values : int;
  fanout : Histogram.t;
  lifetime : Histogram.t;
}

type live_value = { born : int; mutable reads : int; mutable last_read : int }

let of_trace (trace : Trace.t) =
  let fanout = Histogram.create () in
  let lifetime = Histogram.create () in
  let values = ref 0 in
  let live : (Reg.t, live_value) Hashtbl.t = Hashtbl.create 128 in
  let flush v =
    incr values;
    Histogram.add fanout v.reads;
    if v.reads > 0 then Histogram.add lifetime (v.last_read - v.born)
  in
  for u = 0 to Trace.length trace - 1 do
    let ins = (Trace.static trace u).Trace.instr in
    List.iter
      (fun r ->
        if Regset.tracked r then
          match Hashtbl.find_opt live r with
          | Some v ->
              v.reads <- v.reads + 1;
              v.last_read <- u
          | None -> ())
      (Instr.uses ins);
    List.iter
      (fun r ->
        if Regset.tracked r then begin
          (match Hashtbl.find_opt live r with
          | Some v ->
              flush v;
              Hashtbl.remove live r
          | None -> ());
          Hashtbl.replace live r { born = u; reads = 0; last_read = u }
        end)
      (Instr.defs ins)
  done;
  Hashtbl.iter (fun _ v -> flush v) live;
  { values = !values; fanout; lifetime }

let fanout_at_most t k = Histogram.fraction_le t.fanout k

let fanout_exactly t k = Histogram.fraction_eq t.fanout k

let unused_fraction t = Histogram.fraction_eq t.fanout 0

let lifetime_at_most t k = Histogram.fraction_le t.lifetime k

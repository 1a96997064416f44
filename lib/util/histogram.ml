module Imap = Map.Make (Int)

type t = { mutable counts : int Imap.t; mutable total : int }

let create () = { counts = Imap.empty; total = 0 }

let add_many t v n =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  if n < 0 then invalid_arg "Histogram.add_many: negative count";
  if n > 0 then begin
    t.counts <-
      Imap.update v (function None -> Some n | Some c -> Some (c + n)) t.counts;
    t.total <- t.total + n
  end

let add t v = add_many t v 1
let count t = t.total
let count_eq t v = match Imap.find_opt v t.counts with None -> 0 | Some c -> c

let count_le t v =
  Imap.fold (fun k c acc -> if k <= v then acc + c else acc) t.counts 0

let fraction_eq t v =
  if t.total = 0 then 0.0 else float_of_int (count_eq t v) /. float_of_int t.total

let fraction_le t v =
  if t.total = 0 then 0.0 else float_of_int (count_le t v) /. float_of_int t.total

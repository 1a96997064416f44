type t = { mutable items : (string * int ref) list (* newest first *) }

let create () = { items = [] }

let add t name n =
  match List.assoc_opt name t.items with
  | Some c -> c := !c + n
  | None -> t.items <- (name, ref n) :: t.items

let snapshot t = List.rev_map (fun (name, c) -> (name, !c)) t.items

type block = {
  id : int;
  instrs : Instr.t array;
  fallthrough : int option;
}

type t = {
  blocks : block array;
  entry : int;
  mutable base_cache : int array option;
      (* lazily computed block_base table; blocks are immutable after
         [make], so filling it is idempotent (and hence benign if two
         domains race on the first call) *)
}

let validate blocks entry =
  let n = Array.length blocks in
  if n = 0 then invalid_arg "Program.make: no blocks";
  if entry < 0 || entry >= n then invalid_arg "Program.make: bad entry";
  Array.iteri
    (fun i b ->
      if b.id <> i then invalid_arg "Program.make: block ids must be dense";
      let last = Array.length b.instrs - 1 in
      Array.iteri
        (fun j ins ->
          match ins.Instr.op with
          | Op.Branch (_, _, l) | Op.Jump l ->
              if j <> last then invalid_arg "Program.make: transfer not terminal";
              if l < 0 || l >= n then invalid_arg "Program.make: bad branch target"
          | Op.Halt ->
              if j <> last then invalid_arg "Program.make: halt not terminal"
          | _ -> ())
        b.instrs;
      let terminal =
        if last < 0 then None else Some b.instrs.(last).Instr.op
      in
      let needs_fallthrough =
        match terminal with
        | Some (Op.Jump _) | Some Op.Halt -> false
        | Some (Op.Branch _) | Some _ | None -> true
      in
      (match b.fallthrough with
      | Some ft when ft < 0 || ft >= n ->
          invalid_arg "Program.make: bad fallthrough"
      | Some _ -> ()
      | None ->
          if needs_fallthrough then
            invalid_arg
              (Printf.sprintf "Program.make: block %d needs a fallthrough" i)))
    blocks

let make blocks ~entry =
  let blocks = Array.of_list blocks in
  validate blocks entry;
  { blocks; entry; base_cache = None }

let num_blocks t = Array.length t.blocks

let num_static_instrs t =
  Array.fold_left (fun acc b -> acc + Array.length b.instrs) 0 t.blocks

let base_table t =
  match t.base_cache with
  | Some a -> a
  | None ->
      let n = Array.length t.blocks in
      let a = Array.make n 0 in
      for i = 1 to n - 1 do
        a.(i) <- a.(i - 1) + Array.length t.blocks.(i - 1).instrs
      done;
      t.base_cache <- Some a;
      a

let block_base t b = (base_table t).(b)

let pc_of t ~block_id ~offset = 4 * (block_base t block_id + offset)

let map_blocks f t =
  let blocks = Array.map f t.blocks in
  validate blocks t.entry;
  { blocks; entry = t.entry; base_cache = None }

let iter_instrs f t =
  Array.iter (fun b -> Array.iteri (fun off ins -> f b off ins) b.instrs) t.blocks

let max_virt_index t =
  let m = ref (-1) in
  iter_instrs
    (fun _ _ ins ->
      List.iter
        (fun r -> if r.Reg.space = Reg.Virt then m := max !m r.Reg.idx)
        (Instr.defs ins @ Instr.uses ins))
    t;
  !m

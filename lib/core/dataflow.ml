type t = {
  live_in : Regset.Set.t array;
  live_out : Regset.Set.t array;
}

let successors p bid =
  let b = p.Program.blocks.(bid) in
  let n = Array.length b.Program.instrs in
  let explicit =
    if n = 0 then []
    else
      match b.Program.instrs.(n - 1).Instr.op with
      | Op.Branch (_, _, l) -> [ l ]
      | Op.Jump l -> [ l ]
      | Op.Halt -> []
      | _ -> []
  in
  let halts =
    n > 0 &&
    (match b.Program.instrs.(n - 1).Instr.op with
     | Op.Halt | Op.Jump _ -> true
     | _ -> false)
  in
  let fall = if halts then [] else Option.to_list b.Program.fallthrough in
  explicit @ fall

let block_uses_defs (b : Program.block) =
  let uses = ref Regset.Set.empty and defs = ref Regset.Set.empty in
  Array.iter
    (fun ins ->
      List.iter
        (fun r ->
          if Regset.tracked r && not (Regset.Set.mem r !defs) then
            uses := Regset.Set.add r !uses)
        (Instr.uses ins);
      List.iter
        (fun r -> if Regset.tracked r then defs := Regset.Set.add r !defs)
        (Instr.defs ins))
    b.Program.instrs;
  (!uses, !defs)

let liveness p =
  let n = Program.num_blocks p in
  let use = Array.make n Regset.Set.empty in
  let def = Array.make n Regset.Set.empty in
  for i = 0 to n - 1 do
    let u, d = block_uses_defs p.Program.blocks.(i) in
    use.(i) <- u;
    def.(i) <- d
  done;
  let live_in = Array.make n Regset.Set.empty in
  let live_out = Array.make n Regset.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> Regset.Set.union acc live_in.(s))
          Regset.Set.empty (successors p i)
      in
      let inn = Regset.Set.union use.(i) (Regset.Set.diff out def.(i)) in
      if not (Regset.Set.equal out live_out.(i)) then begin
        live_out.(i) <- out;
        changed := true
      end;
      if not (Regset.Set.equal inn live_in.(i)) then begin
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  { live_in; live_out }

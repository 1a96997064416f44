type stop =
  | Exited of int
  | Break
  | Out_of_fuel
  | Fault of { pc : int; reason : string }

type outcome = {
  stop : stop;
  regs : int array;
  steps : int;
  output : string;
  image : (int * int) list;
}

let default_tohost = 0xF000
let default_max_steps = 1_000_000

let stop_to_string = function
  | Exited code -> Printf.sprintf "exited %d" code
  | Break -> "ebreak"
  | Out_of_fuel -> "step budget exhausted"
  | Fault { pc; reason } -> Printf.sprintf "fault at 0x%x: %s" pc reason

exception Trap of stop

(* RV32IM arithmetic on 32-bit values held in OCaml ints. [run] is the
   reference the frontend oracle diffs the translated IR and every core
   against, so it stays a plain fetch-decode-execute interpreter. *)
let s32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let alu_eval (o : Insn.alu) a b =
  match o with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Sll -> a lsl (b land 31)
  | Insn.Slt -> if s32 a < s32 b then 1 else 0
  | Insn.Sltu -> if a < b then 1 else 0
  | Insn.Xor -> a lxor b
  | Insn.Or -> a lor b
  | Insn.And -> a land b
  | Insn.Srl -> a lsr (b land 31)
  | Insn.Sra -> s32 a asr (b land 31)

let muldiv_eval (o : Insn.muldiv) a b =
  let sa = s32 a and sb = s32 b in
  match o with
  | Insn.Mul -> sa * sb
  | Insn.Mulh -> (sa * sb) asr 32
  | Insn.Mulhsu ->
      Int64.to_int
        (Int64.shift_right (Int64.mul (Int64.of_int sa) (Int64.of_int b)) 32)
  | Insn.Mulhu ->
      Int64.to_int
        (Int64.shift_right_logical
           (Int64.mul (Int64.of_int a) (Int64.of_int b))
           32)
  | Insn.Div ->
      if sb = 0 then -1
      else if sa = -0x80000000 && sb = -1 then sa
      else sa / sb
  | Insn.Divu -> if b = 0 then 0xFFFFFFFF else a / b
  | Insn.Rem ->
      if sb = 0 then sa
      else if sa = -0x80000000 && sb = -1 then 0
      else sa mod sb
  | Insn.Remu -> if b = 0 then a else a mod b

let branch_taken (c : Insn.bcond) a b =
  match c with
  | Insn.Beq -> a = b
  | Insn.Bne -> a <> b
  | Insn.Blt -> s32 a < s32 b
  | Insn.Bge -> s32 a >= s32 b
  | Insn.Bltu -> a < b
  | Insn.Bgeu -> a >= b

let run ?(max_steps = default_max_steps) ?(tohost = default_tohost)
    (img : Image.t) =
  let mem : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  Image.iter_words (fun addr w -> if w <> 0 then Hashtbl.replace mem addr w) img;
  let regs = Array.make 32 0 in
  let output = Buffer.create 16 in
  let pc = ref img.Image.entry in
  let steps = ref 0 in
  let mask32 = Insn.mask32 in
  let fault reason = raise (Trap (Fault { pc = !pc; reason })) in
  let rd_word addr =
    if addr < 0 || addr >= Image.max_addr then
      fault (Printf.sprintf "address 0x%x out of range" addr)
    else match Hashtbl.find_opt mem (addr land lnot 3) with
      | Some v -> v
      | None -> 0
  in
  let wr_word addr v =
    if addr < 0 || addr >= Image.max_addr then
      fault (Printf.sprintf "address 0x%x out of range" addr);
    let v = mask32 v in
    if v = 0 then Hashtbl.remove mem addr else Hashtbl.replace mem addr v;
    if addr = tohost then
      if v land 1 = 1 then raise (Trap (Exited (v lsr 1)))
      else if v land 0xFF = 2 then
        Buffer.add_char output (Char.chr ((v lsr 8) land 0xFF))
  in
  let load w addr =
    let aligned n what =
      if addr land (n - 1) <> 0 then
        fault (Printf.sprintf "misaligned %s at 0x%x" what addr)
    in
    let word () = rd_word (addr land lnot 3) in
    let shift = (addr land 3) lsl 3 in
    match (w : Insn.width) with
    | Insn.W -> aligned 4 "lw"; word ()
    | Insn.Hu -> aligned 2 "lh"; (word () lsr shift) land 0xFFFF
    | Insn.H -> aligned 2 "lh"; mask32 (Insn.sext (word () lsr shift) 16)
    | Insn.Bu -> (word () lsr shift) land 0xFF
    | Insn.B -> mask32 (Insn.sext (word () lsr shift) 8)
  in
  let store w addr v =
    let shift = (addr land 3) lsl 3 in
    let merge bits =
      let mask = ((1 lsl bits) - 1) lsl shift in
      let old = rd_word (addr land lnot 3) in
      wr_word (addr land lnot 3)
        ((old land lnot mask) lor ((v lsl shift) land mask))
    in
    match (w : Insn.width) with
    | Insn.W ->
        if addr land 3 <> 0 then
          fault (Printf.sprintf "misaligned sw at 0x%x" addr);
        wr_word addr v
    | Insn.H ->
        if addr land 1 <> 0 then
          fault (Printf.sprintf "misaligned sh at 0x%x" addr);
        merge 16
    | Insn.B -> merge 8
    | Insn.Bu | Insn.Hu -> assert false
  in
  let decode_cache : (int, (Insn.t, Insn.error) result) Hashtbl.t =
    Hashtbl.create 256
  in
  let decode w =
    match Hashtbl.find_opt decode_cache w with
    | Some r -> r
    | None ->
        let r = Insn.decode w in
        Hashtbl.add decode_cache w r;
        r
  in
  let get r = regs.(r) in
  let set r v = if r <> 0 then regs.(r) <- mask32 v in
  let stop =
    try
      while !steps < max_steps do
        if !pc land 3 <> 0 then fault "misaligned pc";
        if not (Image.in_range img !pc) then
          fault "pc outside the loaded image";
        let word = rd_word !pc in
        let insn =
          match decode word with
          | Ok i -> i
          | Error e -> fault (Insn.error_to_string e)
        in
        incr steps;
        let next = ref (!pc + 4) in
        (match insn with
        | Insn.Lui (rd, imm) -> set rd (imm lsl 12)
        | Insn.Auipc (rd, imm) -> set rd (!pc + (imm lsl 12))
        | Insn.Jal (rd, off) ->
            set rd (!pc + 4);
            next := mask32 (!pc + off)
        | Insn.Jalr (rd, rs1, imm) ->
            let t = !pc + 4 in
            next := mask32 (get rs1 + imm) land lnot 1;
            set rd t
        | Insn.Branch (c, rs1, rs2, off) ->
            if branch_taken c (get rs1) (get rs2) then
              next := mask32 (!pc + off)
        | Insn.Load (w, rd, rs1, imm) ->
            set rd (load w (mask32 (get rs1 + imm)))
        | Insn.Store (w, rs2, rs1, imm) ->
            store w (mask32 (get rs1 + imm)) (get rs2)
        | Insn.Alui (o, rd, rs1, imm) -> set rd (alu_eval o (get rs1) (Insn.mask32 imm))
        | Insn.Alu (o, rd, rs1, rs2) -> set rd (alu_eval o (get rs1) (get rs2))
        | Insn.Muldiv (o, rd, rs1, rs2) -> set rd (muldiv_eval o (get rs1) (get rs2))
        | Insn.Fence -> ()
        | Insn.Ecall -> raise (Trap (Exited (get 10)))
        | Insn.Ebreak -> raise (Trap Break));
        pc := !next
      done;
      Out_of_fuel
    with Trap s -> s
  in
  let image =
    Hashtbl.fold (fun a v acc -> (a, v) :: acc) mem []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { stop; regs; steps = !steps; output = Buffer.contents output; image }

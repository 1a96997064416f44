let spill_base = 0x2000_0000

type state = {
  ext_int : int64 array;
  ext_fp : int64 array;
  intern : int64 array;
  mutable virt_int : int64 array;  (* grown on demand; unwritten = 0 *)
  mutable virt_fp : int64 array;
  mem : Braid_util.Paged_mem.t;
}

type outcome = {
  trace : Trace.t option;
  stop : Trace.stop_reason;
  dynamic_count : int;
  store_count : int;
  state : state;
}

let create_state () =
  {
    ext_int = Array.make Reg.num_ext_per_class 0L;
    ext_fp = Array.make Reg.num_ext_per_class 0L;
    intern = Array.make Reg.num_internal 0L;
    virt_int = Array.make 256 0L;
    virt_fp = Array.make 256 0L;
    mem = Braid_util.Paged_mem.create ();
  }

let grown a idx =
  let n = Array.length a in
  if idx < n then a
  else begin
    let a' = Array.make (max (2 * n) (idx + 1)) 0L in
    Array.blit a 0 a' 0 n;
    a'
  end

let read_reg st (r : Reg.t) =
  if Reg.is_zero r then 0L
  else
    match (r.space, r.cls) with
    | Reg.Ext, Reg.Cint -> st.ext_int.(r.idx)
    | Reg.Ext, Reg.Cfp -> st.ext_fp.(r.idx)
    | Reg.Intern, _ -> st.intern.(r.idx)
    | Reg.Virt, Reg.Cint ->
        if r.idx < Array.length st.virt_int then st.virt_int.(r.idx) else 0L
    | Reg.Virt, Reg.Cfp ->
        if r.idx < Array.length st.virt_fp then st.virt_fp.(r.idx) else 0L

let write_reg st (r : Reg.t) v =
  if Reg.is_zero r then ()
  else
    match (r.space, r.cls) with
    | Reg.Ext, Reg.Cint -> st.ext_int.(r.idx) <- v
    | Reg.Ext, Reg.Cfp -> st.ext_fp.(r.idx) <- v
    | Reg.Intern, _ -> st.intern.(r.idx) <- v
    | Reg.Virt, Reg.Cint ->
        st.virt_int <- grown st.virt_int r.idx;
        st.virt_int.(r.idx) <- v
    | Reg.Virt, Reg.Cfp ->
        st.virt_fp <- grown st.virt_fp r.idx;
        st.virt_fp.(r.idx) <- v

let read_mem_word st addr = Braid_util.Paged_mem.load st.mem addr

let check_aligned addr =
  if addr land 7 <> 0 then failwith (Printf.sprintf "unaligned access: %#x" addr);
  if addr < 0 then failwith (Printf.sprintf "negative address: %d" addr)

(* Architectural effect of executing one operation. *)
type exec_result = {
  written : (Reg.t * int64) list;
  was_store : bool;
  transfer : Op.label option;  (* Some target if a taken branch/jump *)
  halt : bool;
}

let no_effect = { written = []; was_store = false; transfer = None; halt = false }

(* Arithmetic faults (FP divide by zero) write zero and continue. *)
let exec_op st (ins : Instr.t) : exec_result =
  let r = read_reg st in
  let as_f x = Int64.float_of_bits x in
  let write d v = { no_effect with written = [ (d, v) ] } in
  match ins.Instr.op with
  | Op.Nop -> no_effect
  | Op.Ibin (o, d, a, b) -> write d (Op.eval_ibin o (r a) (r b))
  | Op.Ibini (o, d, a, i) -> write d (Op.eval_ibin o (r a) (Int64.of_int i))
  | Op.Movi (d, v) -> write d v
  | Op.Fbin (o, d, a, b) ->
      write d
        (match Op.eval_fbin o (as_f (r a)) (as_f (r b)) with
        | Some v -> Int64.bits_of_float v
        | None -> 0L)
  | Op.Funary (o, d, a) -> write d (Op.eval_funary o (r a))
  | Op.Cmov (c, d, test, v) ->
      write d (if Op.eval_cond c (r test) then r v else r d)
  | Op.Load (d, base, off, _) ->
      let addr = Int64.to_int (r base) + off in
      check_aligned addr;
      write d (read_mem_word st addr)
  | Op.Store (s, base, off, _) ->
      let addr = Int64.to_int (r base) + off in
      check_aligned addr;
      Braid_util.Paged_mem.store st.mem addr (r s);
      { no_effect with was_store = true }
  | Op.Branch (c, reg, l) ->
      if Op.eval_cond c (r reg) then { no_effect with transfer = Some l }
      else no_effect
  | Op.Jump l -> { no_effect with transfer = Some l }
  | Op.Halt -> { no_effect with halt = true }

(* Destination/value pairs of one executed instruction, with the ext_dup
   duplicate destination (I and E both set) mirrored onto the external
   copy. Shared between [reference] and the oracle-facing [exec_instr];
   the compiled engine's per-instruction write sets follow the same rule. *)
let written_of (ins : Instr.t) (res : exec_result) =
  match ins.Instr.annot.Instr.ext_dup with
  | None -> res.written
  | Some dup -> (
      match res.written with
      | [ (_, v) ] -> res.written @ [ (dup, v) ]
      | _ -> res.written)

let init_state ?(init_mem = []) () =
  let st = create_state () in
  List.iter
    (fun (addr, v) ->
      check_aligned addr;
      Braid_util.Paged_mem.store st.mem addr v)
    init_mem;
  st

let exec_instr st (ins : Instr.t) =
  let res = exec_op st ins in
  List.iter (fun (reg, v) -> write_reg st reg v) (written_of ins res)

(* Dense slot per register, shared by the compiled register file and the
   tracer's last-writer table: externals by [ext_id], then internals, then
   virtuals (two classes interleaved). *)
let num_fixed_slots = Reg.num_ext_ids + Reg.num_internal

let reg_slot (r : Reg.t) =
  match r.Reg.space with
  | Reg.Ext -> Reg.ext_id r
  | Reg.Intern -> Reg.num_ext_ids + r.Reg.idx
  | Reg.Virt ->
      num_fixed_slots + (2 * r.Reg.idx)
      + (match r.Reg.cls with Reg.Cint -> 0 | Reg.Cfp -> 1)

(* The untraced reference interpreter: a second, independent
   implementation of the semantics, kept so the differential oracle and
   the identity tests have something to hold the compiled engine to. *)
let reference ?(max_steps = 1_000_000) ?(init_mem = []) program =
  let st = init_state ~init_mem () in
  let steps = ref 0 in
  let stores = ref 0 in
  let halted = ref false in
  let block = ref program.Program.entry in
  let offset = ref 0 in
  while (not !halted) && !steps < max_steps do
    let b = program.Program.blocks.(!block) in
    let fall_through msg =
      match b.Program.fallthrough with
      | Some ft ->
          block := ft;
          offset := 0
      | None -> failwith msg
    in
    if !offset >= Array.length b.Program.instrs then
      (* empty tail: unconditional fallthrough *)
      fall_through "Emulator: fell off a block without fallthrough"
    else begin
      let ins = b.Program.instrs.(!offset) in
      let res = exec_op st ins in
      if res.was_store then incr stores;
      List.iter (fun (reg, v) -> write_reg st reg v) (written_of ins res);
      incr steps;
      if res.halt then halted := true
      else
        match res.transfer with
        | Some target ->
            block := target;
            offset := 0
        | None ->
            if !offset + 1 < Array.length b.Program.instrs then incr offset
            else fall_through "Emulator: missing fallthrough"
    end
  done;
  {
    trace = None;
    stop = (if !halted then Trace.Halted else Trace.Steps_exhausted);
    dynamic_count = !steps;
    store_count = !stores;
    state = st;
  }

let read_ext st (r : Reg.t) =
  match r.Reg.space with
  | Reg.Ext -> read_reg st r
  | Reg.Virt | Reg.Intern -> invalid_arg "Emulator.read_ext: not external"

let read_mem st addr = read_mem_word st addr

let memory_image st =
  Braid_util.Paged_mem.fold_nonzero
    (fun acc addr v -> if addr < spill_base then (addr, v) :: acc else acc)
    [] st.mem
  |> List.sort compare

let memory_fingerprint st =
  List.fold_left
    (fun acc (addr, v) ->
      let acc = Int64.mul (Int64.logxor acc (Int64.of_int addr)) 0x100000001B3L in
      Int64.mul (Int64.logxor acc v) 0x100000001B3L)
    0xCBF29CE484222325L (memory_image st)

(* --- compiled fast path ------------------------------------------------- *)

module Compiled = struct
  (* All registers live in one unboxed int64 bigarray indexed by [reg_slot]
     (the zero register's slot, 31, is never written, so reads of it stay
     0); slot [nslots] is a scratch sink for writes whose destination is the
     zero register, and the slots above it hold the pre-loaded immediates of
     [Ibini] instructions, so every operand of every compiled closure is
     just a slot index. Native code reads and writes the bigarray without
     boxing, which — together with pre-resolved control-flow successors —
     is where the speedup over the allocating interpreter comes from. *)
  type regs = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

  external ba_get : regs -> int -> int64 = "%caml_ba_unsafe_ref_1"
  external ba_set : regs -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

  (* Flat instruction index = block_base + offset = pc/4, exactly the
     global instruction index [Program.base_table] defines, so flat ips and
     trace pcs interconvert for free. Two extra "trap" slots past the end
     hold closures that raise the interpreter's control-flow failures.
     [proto], the read and write CSRs and [trace_op] are the tracer's
     static tables: flat ints, so a traced step decodes nothing. *)
  type code = {
    program : Program.t;
    proto : Trace.static array;
        (* static half of each instruction's trace entry, shared by every
           trace and window of the program *)
    rd_off : int array;  (* sized n+1: ip [i] reads [rd.(rd_off.(i) ..)] *)
    rd : int array;  (* source slot lsl 1 lor via-internal *)
    wr_off : int array;  (* sized n+1, likewise into [wr] *)
    wr : int array;  (* destination slots, ext_dup copy included *)
    max_reads : int;  (* the longest read row *)
    trace_op : int array;
        (* [op_stride] ints per ip: trace kind, operand slot, argument
           (memory offset, or branch sign mask), static flag bits *)
    block_of : int array;  (* sized n+2; the trap slots map to block 0 *)
    run_len : int array;
        (* sized n+2: instructions that run straight from the ip, through
           the first branch, jump or halt or to the end of its block; 1 on
           the trap slots *)
    seg_len : int array;
        (* sized n+2: the ip plus the plain instructions (trace kind
           [k_plain]) that follow it in its run, [run_len] at most; 1 on
           the trap slots *)
    next_ip : int array;  (* fallthrough successor (flat or trap ip) *)
    target_ip : int array;  (* branch/jump target entry ip; -1 when none *)
    dup_slot : int array;  (* auxiliary chain slot of an ext_dup instr; -1 *)
    entry_ip : int;
    nslots : int;
    n_imm : int;
    n_dup : int;
  }

  (* What a traced step reads from the registers before it executes:
     nothing, a load or store's address (operand slot + offset), a
     conditional branch's outcome (its operand's sign against a mask:
     bit 0 taken when negative, bit 1 when zero, bit 2 when positive),
     or an fdiv's fault (a zero divisor). *)
  let op_stride = 4
  let k_plain = 0
  let k_mem = 1
  let k_branch = 2
  let k_fdiv = 3

  let sign_mask c =
    List.fold_left
      (fun m (sign, bit) -> if Op.cond_holds c sign then m lor bit else m)
      0
      [ (-1, 1); (0, 2); (1, 4) ]

  (* [sign_mask]'s bit for a register value *)
  let sign_bit v =
    let c = Int64.compare v 0L in
    if c < 0 then 1 else if c = 0 then 2 else 4

  (* The static half of an instruction's trace entry, its register reads
     and writes as slots (a read packed with its via-internal bit), and
     its [trace_op] row; the zero register is neither a producer nor a
     consumer. *)
  let static_record ~ip ~block_id ~offset (ins : Instr.t) =
    let op = ins.Instr.op in
    let uses = Instr.uses ins in
    let is_intern (r : Reg.t) = r.Reg.space = Reg.Intern in
    let slots f regs =
      Array.of_list
        (List.filter_map
           (fun r -> if Reg.is_zero r then None else Some (f r))
           regs)
    in
    let dests =
      match (Op.defs op, ins.Instr.annot.Instr.ext_dup) with
      | [ d ], Some dup -> [ d; dup ]
      | ds, _ -> ds
    in
    let kind, slot, arg =
      match op with
      | Op.Load (_, r, off, _) | Op.Store (_, r, off, _) -> (k_mem, reg_slot r, off)
      | Op.Branch (c, r, _) -> (k_branch, reg_slot r, sign_mask c)
      | Op.Fbin (Op.Fdiv, _, _, r) ->
          (* the one arithmetic fault [Op.eval_fbin] reports *)
          (k_fdiv, reg_slot r, 0)
      | _ -> (k_plain, 0, 0)
    in
    let flags =
      (match op with Op.Jump _ -> Trace.flag_taken | _ -> 0)
      lor if ins.Instr.annot.Instr.braid_start then Trace.flag_braid_start else 0
    in
    ( ({
        Trace.pc = 4 * ip;
        block_id;
        offset;
        instr = ins;
        is_load = Op.is_load op;
        is_store = Op.is_store op;
        is_cond_branch = (match op with Op.Branch _ -> true | _ -> false);
        is_jump = (match op with Op.Jump _ -> true | _ -> false);
        latency = Op.latency op;
        writes_ext = Instr.writes_external ins;
        writes_int = Instr.writes_internal ins;
        ext_src_reads = Instr.reads_external_count ins;
        int_src_reads = List.length (List.filter is_intern uses);
        braid_id = ins.Instr.annot.Instr.braid_id;
      } : Trace.static),
      slots (fun r -> (reg_slot r lsl 1) lor Bool.to_int (is_intern r)) uses,
      slots reg_slot dests,
      [| kind; slot; arg; flags |] )

  (* rows as CSR: an offset per row into one entry array *)
  let csr rows =
    let off = Array.make (Array.length rows + 1) 0 in
    Array.iteri (fun i r -> off.(i + 1) <- off.(i) + Array.length r) rows;
    (off, Array.concat (Array.to_list rows))

  let compile program =
    let bases = Program.base_table program in
    let n = Program.num_static_instrs program in
    let nb = Array.length program.Program.blocks in
    let trap_fell_off = n in
    let trap_missing = n + 1 in
    let entry_of b0 =
      (* chase empty blocks to the first real instruction; a cycle of empty
         blocks would make the interpreter spin without consuming steps, so
         failing fast on it diverges only for programs no generator emits *)
      let rec go b guard =
        if guard > nb then trap_fell_off
        else
          let blk = program.Program.blocks.(b) in
          if Array.length blk.Program.instrs > 0 then bases.(b)
          else
            match blk.Program.fallthrough with
            | Some ft -> go ft (guard + 1)
            | None -> trap_fell_off
      in
      go b0 0
    in
    let block_entry = Array.init nb entry_of in
    let blank, _, _, _ =
      static_record ~ip:0 ~block_id:0 ~offset:0 (Instr.make Op.Halt)
    in
    let proto = Array.make n blank in
    let reads = Array.make n [||] in
    let writes = Array.make n [||] in
    let trace_op = Array.make (n * op_stride) 0 in
    let block_of = Array.make (n + 2) 0 in
    let next_ip = Array.make n trap_missing in
    let target_ip = Array.make n (-1) in
    let dup_slot = Array.make n (-1) in
    let n_imm = ref 0 in
    let n_dup = ref 0 in
    Program.iter_instrs
      (fun blk off ins ->
        let ip = bases.(blk.Program.id) + off in
        let ev, rd, wr, row =
          static_record ~ip ~block_id:blk.Program.id ~offset:off ins
        in
        proto.(ip) <- ev;
        reads.(ip) <- rd;
        writes.(ip) <- wr;
        Array.blit row 0 trace_op (ip * op_stride) op_stride;
        block_of.(ip) <- blk.Program.id;
        next_ip.(ip) <-
          (if off + 1 < Array.length blk.Program.instrs then ip + 1
           else
             match blk.Program.fallthrough with
             | Some ft -> block_entry.(ft)
             | None -> trap_missing);
        (match ins.Instr.annot.Instr.ext_dup with
        | Some _ when Op.defs ins.Instr.op <> [] ->
            dup_slot.(ip) <- n + 2 + !n_dup;
            incr n_dup
        | _ -> ());
        match ins.Instr.op with
        | Op.Branch (_, _, l) | Op.Jump l -> target_ip.(ip) <- block_entry.(l)
        | Op.Ibini _ -> incr n_imm
        | _ -> ())
      program;
    let run_len = Array.make (n + 2) 1 in
    Array.iter
      (fun (blk : Program.block) ->
        let base = bases.(blk.Program.id) in
        for off = Array.length blk.Program.instrs - 2 downto 0 do
          match blk.Program.instrs.(off).Instr.op with
          | Op.Branch _ | Op.Jump _ | Op.Halt -> ()
          | _ -> run_len.(base + off) <- 1 + run_len.(base + off + 1)
        done)
      program.Program.blocks;
    let seg_len = Array.make (n + 2) 1 in
    for ip = n - 2 downto 0 do
      if run_len.(ip) > 1 && trace_op.((ip + 1) * op_stride) = k_plain then
        seg_len.(ip) <- 1 + seg_len.(ip + 1)
    done;
    let rd_off, rd = csr reads and wr_off, wr = csr writes in
    {
      program;
      proto;
      rd_off;
      rd;
      wr_off;
      wr;
      max_reads = Array.fold_left (fun m r -> Int.max m (Array.length r)) 0 reads;
      trace_op;
      block_of;
      run_len;
      seg_len;
      next_ip;
      target_ip;
      dup_slot;
      entry_ip =
        (if nb = 0 then trap_fell_off else block_entry.(program.Program.entry));
      nslots = num_fixed_slots + (2 * (Program.max_virt_index program + 1));
      n_imm = !n_imm;
      n_dup = !n_dup;
    }

  let num_blocks code = Array.length code.program.Program.blocks

  (* One closure per static instruction, chained by direct tail calls: a
     closure takes the remaining fuel, applies the architectural effect and
     tail-calls its successor's closure with [fuel - 1]; at [fuel = 0] it
     parks the run on itself ([stop] := own ip) and unwinds by returning
     the unspent fuel. An [advance] is therefore a single closure call —
     no dispatch loop, no per-step counter traffic, no halt test.
     [alloc_imm] registers an immediate and returns its pre-loaded slot. *)
  let make_step regs mem stores scratch alloc_imm (step : (int -> int) array)
      (stop : int ref) (ins : Instr.t) ~ip ~next ~target =
    let rs (r : Reg.t) = reg_slot r in
    let ws (r : Reg.t) = if Reg.is_zero r then scratch else reg_slot r in
    let ibin (o : Op.ibin) d a b =
      match o with
      | Op.Add ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d (Int64.add (ba_get regs a) (ba_get regs b));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Sub ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d (Int64.sub (ba_get regs a) (ba_get regs b));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Mul ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d (Int64.mul (ba_get regs a) (ba_get regs b));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Div ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              let bv = ba_get regs b in
              ba_set regs d
                (if Int64.equal bv 0L then -1L
                 else Int64.div (ba_get regs a) bv);
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Rem ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              let av = ba_get regs a and bv = ba_get regs b in
              ba_set regs d (if Int64.equal bv 0L then av else Int64.rem av bv);
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.And ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d (Int64.logand (ba_get regs a) (ba_get regs b));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Or ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d (Int64.logor (ba_get regs a) (ba_get regs b));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Xor ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d (Int64.logxor (ba_get regs a) (ba_get regs b));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Andnot ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d
                (Int64.logand (ba_get regs a) (Int64.lognot (ba_get regs b)));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Shl ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d
                (Int64.shift_left (ba_get regs a)
                   (Int64.to_int (ba_get regs b) land 63));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Shr ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d
                (Int64.shift_right_logical (ba_get regs a)
                   (Int64.to_int (ba_get regs b) land 63));
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Cmpeq ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d
                (if Int64.equal (ba_get regs a) (ba_get regs b) then 1L
                 else 0L);
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Cmplt ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d
                (if Int64.compare (ba_get regs a) (ba_get regs b) < 0 then 1L
                 else 0L);
              (Array.unsafe_get step next) (fuel - 1)
            end
      | Op.Cmple ->
          fun fuel ->
            if fuel = 0 then (stop := ip; 0)
            else begin
              ba_set regs d
                (if Int64.compare (ba_get regs a) (ba_get regs b) <= 0 then 1L
                 else 0L);
              (Array.unsafe_get step next) (fuel - 1)
            end
    in
    match ins.Instr.op with
    | Op.Nop ->
        fun fuel ->
          if fuel = 0 then (stop := ip; 0)
          else (Array.unsafe_get step next) (fuel - 1)
    | Op.Ibin (o, d, a, b) -> ibin o (ws d) (rs a) (rs b)
    | Op.Ibini (o, d, a, i) -> ibin o (ws d) (rs a) (alloc_imm (Int64.of_int i))
    | Op.Movi (d, v) ->
        let d = ws d in
        fun fuel ->
          if fuel = 0 then (stop := ip; 0)
          else begin
            ba_set regs d v;
            (Array.unsafe_get step next) (fuel - 1)
          end
    | Op.Fbin (o, d, a, b) -> (
        let d = ws d and a = rs a and b = rs b in
        match o with
        | Op.Fadd ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs d
                  (Int64.bits_of_float
                     (Int64.float_of_bits (ba_get regs a)
                     +. Int64.float_of_bits (ba_get regs b)));
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Fsub ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs d
                  (Int64.bits_of_float
                     (Int64.float_of_bits (ba_get regs a)
                     -. Int64.float_of_bits (ba_get regs b)));
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Fmul ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs d
                  (Int64.bits_of_float
                     (Int64.float_of_bits (ba_get regs a)
                     *. Int64.float_of_bits (ba_get regs b)));
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Fdiv ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                let bv = Int64.float_of_bits (ba_get regs b) in
                (if bv = 0.0 then ba_set regs d 0L
                 else
                   ba_set regs d
                     (Int64.bits_of_float
                        (Int64.float_of_bits (ba_get regs a) /. bv)));
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Fcmplt ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs d
                  (Int64.bits_of_float
                     (if
                        Int64.float_of_bits (ba_get regs a)
                        < Int64.float_of_bits (ba_get regs b)
                      then 1.0
                      else 0.0));
                (Array.unsafe_get step next) (fuel - 1)
              end)
    | Op.Funary (o, d, a) -> (
        let d = ws d and a = rs a in
        match o with
        | Op.Fneg ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs d
                  (Int64.bits_of_float
                     (-.Int64.float_of_bits (ba_get regs a)));
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Fsqrt ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs d
                  (Int64.bits_of_float
                     (sqrt (Float.abs (Int64.float_of_bits (ba_get regs a)))));
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Cvt_if ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs d
                  (Int64.bits_of_float (Int64.to_float (ba_get regs a)));
                (Array.unsafe_get step next) (fuel - 1)
              end)
    | Op.Cmov (c, d, test, v) -> (
        let dr = rs d and dw = ws d and t = rs test and v = rs v in
        match c with
        | Op.Eq ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs dw
                  (if Int64.equal (ba_get regs t) 0L then ba_get regs v
                   else ba_get regs dr);
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Ne ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs dw
                  (if Int64.equal (ba_get regs t) 0L then ba_get regs dr
                   else ba_get regs v);
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Lt ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs dw
                  (if Int64.compare (ba_get regs t) 0L < 0 then ba_get regs v
                   else ba_get regs dr);
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Ge ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs dw
                  (if Int64.compare (ba_get regs t) 0L >= 0 then ba_get regs v
                   else ba_get regs dr);
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Le ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs dw
                  (if Int64.compare (ba_get regs t) 0L <= 0 then ba_get regs v
                   else ba_get regs dr);
                (Array.unsafe_get step next) (fuel - 1)
              end
        | Op.Gt ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else begin
                ba_set regs dw
                  (if Int64.compare (ba_get regs t) 0L > 0 then ba_get regs v
                   else ba_get regs dr);
                (Array.unsafe_get step next) (fuel - 1)
              end)
    | Op.Load (d, base, off, _) ->
        let d = ws d and b = rs base in
        fun fuel ->
          if fuel = 0 then (stop := ip; 0)
          else begin
            let addr = Int64.to_int (ba_get regs b) + off in
            check_aligned addr;
            ba_set regs d
              (Braid_util.Paged_mem.page_get
                 (Braid_util.Paged_mem.page_for_load mem addr)
                 (Braid_util.Paged_mem.word_index addr));
            (Array.unsafe_get step next) (fuel - 1)
          end
    | Op.Store (s, base, off, _) ->
        let s = rs s and b = rs base in
        fun fuel ->
          if fuel = 0 then (stop := ip; 0)
          else begin
            let addr = Int64.to_int (ba_get regs b) + off in
            check_aligned addr;
            Braid_util.Paged_mem.page_set
              (Braid_util.Paged_mem.page_for_store mem addr)
              (Braid_util.Paged_mem.word_index addr)
              (ba_get regs s);
            incr stores;
            (Array.unsafe_get step next) (fuel - 1)
          end
    | Op.Branch (c, r, _) -> (
        let s = rs r in
        match c with
        | Op.Eq ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else
                (Array.unsafe_get step
                   (if Int64.equal (ba_get regs s) 0L then target else next))
                  (fuel - 1)
        | Op.Ne ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else
                (Array.unsafe_get step
                   (if Int64.equal (ba_get regs s) 0L then next else target))
                  (fuel - 1)
        | Op.Lt ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else
                (Array.unsafe_get step
                   (if Int64.compare (ba_get regs s) 0L < 0 then target
                    else next))
                  (fuel - 1)
        | Op.Ge ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else
                (Array.unsafe_get step
                   (if Int64.compare (ba_get regs s) 0L >= 0 then target
                    else next))
                  (fuel - 1)
        | Op.Le ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else
                (Array.unsafe_get step
                   (if Int64.compare (ba_get regs s) 0L <= 0 then target
                    else next))
                  (fuel - 1)
        | Op.Gt ->
            fun fuel ->
              if fuel = 0 then (stop := ip; 0)
              else
                (Array.unsafe_get step
                   (if Int64.compare (ba_get regs s) 0L > 0 then target
                    else next))
                  (fuel - 1))
    | Op.Jump _ ->
        fun fuel ->
          if fuel = 0 then (stop := ip; 0)
          else (Array.unsafe_get step target) (fuel - 1)
    | Op.Halt ->
        fun fuel ->
          if fuel = 0 then (stop := ip; 0)
          else begin
            stop := -1;
            fuel - 1
          end

  type run = {
    code : code;
    regs : regs;
    mem : Braid_util.Paged_mem.t;
    step : (int -> int) array;
    stop : int ref;  (* where the chain parked: next ip, or -1 after Halt *)
    mutable ip : int;  (* next instruction to execute; -1 once halted *)
    mutable steps : int;
    stores : int ref;
  }

  let start ?(init_mem = []) code =
    let n = Array.length code.proto in
    let regs =
      Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
        (code.nslots + 1 + code.n_imm)
    in
    Bigarray.Array1.fill regs 0L;
    let mem = Braid_util.Paged_mem.create () in
    List.iter
      (fun (addr, v) ->
        check_aligned addr;
        Braid_util.Paged_mem.store mem addr v)
      init_mem;
    let stores = ref 0 in
    let stop = ref 0 in
    let next_imm = ref (code.nslots + 1) in
    let alloc_imm v =
      let s = !next_imm in
      incr next_imm;
      ba_set regs s v;
      s
    in
    let step = Array.make (n + 2 + code.n_dup) (fun (_ : int) -> 0) in
    let scratch = code.nslots in
    for ip = 0 to n - 1 do
      let aux = code.dup_slot.(ip) in
      let next = if aux >= 0 then aux else code.next_ip.(ip) in
      step.(ip) <-
        make_step regs mem stores scratch alloc_imm step stop
          code.proto.(ip).Trace.instr ~ip ~next ~target:code.target_ip.(ip);
      if aux >= 0 then begin
        (* the (I and E) duplicate destination reads back the just-written
           primary slot, which written_of mirrors in the interpreter; the
           copy lives in an auxiliary chain slot that consumes no fuel, so
           the main closure and the copy together count as one step *)
        let ins = code.proto.(ip).Trace.instr in
        match (ins.Instr.annot.Instr.ext_dup, Op.defs ins.Instr.op) with
        | Some du, d :: _ ->
            let slot r = if Reg.is_zero r then scratch else reg_slot r in
            let ds = slot du and dp = slot d in
            let real_next = code.next_ip.(ip) in
            step.(aux) <-
              (fun fuel ->
                ba_set regs ds (ba_get regs dp);
                (Array.unsafe_get step real_next) fuel)
        | _ -> assert false
      end
    done;
    step.(n) <-
      (fun fuel ->
        if fuel = 0 then (stop := n; 0)
        else failwith "Emulator: fell off a block without fallthrough");
    step.(n + 1) <-
      (fun fuel ->
        if fuel = 0 then (stop := n + 1; 0)
        else failwith "Emulator: missing fallthrough");
    { code; regs; mem; step; stop; ip = code.entry_ip; steps = 0; stores }

  let advance run ~fuel =
    if fuel < 0 then invalid_arg "Compiled.advance: negative fuel";
    if run.ip < 0 || fuel = 0 then 0
    else begin
      let rem = (Array.unsafe_get run.step run.ip) fuel in
      let n = fuel - rem in
      run.ip <- !(run.stop);
      run.steps <- run.steps + n;
      n
    end

  (* One chain call per straight-line run: every instruction of a run
     lies in one block, so the count the call executed is that block's. *)
  let advance_bbv run ~fuel ~counts =
    if fuel < 0 then invalid_arg "Compiled.advance_bbv: negative fuel";
    let step = run.step and stop = run.stop in
    let block_of = run.code.block_of and run_len = run.code.run_len in
    let ip = ref run.ip in
    let n = ref 0 in
    while !n < fuel && !ip >= 0 do
      let i = !ip in
      let k = Int.min (Array.unsafe_get run_len i) (fuel - !n) in
      let ran = k - (Array.unsafe_get step i) k in
      let b = Array.unsafe_get block_of i in
      counts.(b) <- counts.(b) + ran;
      ip := !stop;
      n := !n + ran
    done;
    run.ip <- !ip;
    run.steps <- run.steps + !n;
    !n

  let halted run = run.ip < 0
  let steps run = run.steps
  let store_count run = !(run.stores)

  (* An architectural [state] view of the run: register arrays are copied,
     memory is shared by reference. *)
  let state run =
    let regs = run.regs in
    let max_virt = Program.max_virt_index run.code.program in
    {
      ext_int =
        Array.init Reg.num_ext_per_class (fun i ->
            ba_get regs (reg_slot (Reg.ext Reg.Cint i)));
      ext_fp =
        Array.init Reg.num_ext_per_class (fun i ->
            ba_get regs (reg_slot (Reg.ext Reg.Cfp i)));
      intern =
        Array.init Reg.num_internal (fun i ->
            ba_get regs (reg_slot (Reg.intern i)));
      virt_int =
        Array.init (max_virt + 1) (fun i ->
            ba_get regs (num_fixed_slots + (2 * i)));
      virt_fp =
        Array.init (max_virt + 1) (fun i ->
            ba_get regs (num_fixed_slots + (2 * i) + 1));
      mem = run.mem;
    }

  (* The most instructions a window's columns are sized for up front;
     a longer window grows them. *)
  let max_window = 1 lsl 20

  (* A stream's pre-pass keeps its release bits in two growable bitsets:
     one bit per uid (read externally) and one per register read (the
     last external read of its producer), a read's position counting
     every [rd] entry of every instruction run. [reads] is the position
     the stream's tracer has reached. *)
  type marks = { readers : Bytes.t; lasts : Bytes.t; mutable reads : int }

  let bit b i =
    let j = i lsr 3 in
    j < Bytes.length b && Char.code (Bytes.unsafe_get b j) land (1 lsl (i land 7)) <> 0

  let set_bit (b : Bytes.t ref) i =
    let j = i lsr 3 in
    if j >= Bytes.length !b then begin
      let g = Bytes.make (Int.max (j + 1) (2 * Bytes.length !b)) '\000' in
      Bytes.blit !b 0 g 0 (Bytes.length !b);
      b := g
    end;
    Bytes.unsafe_set !b j
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get !b j) lor (1 lsl (i land 7))))

  (* The tracer single-steps the chain ([fuel = 1], as [advance_bbv] does)
     and appends each instruction to [b] until it holds [upto] or the
     program ends, reading its address, branch outcome and fault from the
     registers as they are before the step, as its [trace_op] row says.
     [last_writer] maps each register slot to the uid that last wrote it:
     a stream keeps one across its refills, while a window's starts empty,
     so a mid-run window is a self-contained trace whose dependences on
     pre-window producers are dropped, which is precisely what a timing
     model fed only that window must see. A stream's tracer marks the
     entry of each read its pre-pass's [marks] set as a last read, and
     each uid its pre-pass found no external reader for. *)
  let trace_into run b last_writer ~upto ~marks =
    let code = run.code and regs = run.regs and step = run.step in
    let n = Array.length code.proto in
    let rd_off = code.rd_off and rd = code.rd in
    let wr_off = code.wr_off and wr = code.wr in
    let trace_op = code.trace_op in
    let first = Trace.Builder.length b in
    let ip = ref run.ip in
    while Trace.Builder.length b < upto && !ip >= 0 do
      let i = !ip and u = Trace.Builder.length b in
      (* a run parked on a trap slot raises its control-flow failure *)
      if i >= n then ignore (step.(i) 1 : int);
      let r0 = rd_off.(i) and r1 = rd_off.(i + 1) in
      for k = r0 to r1 - 1 do
        let e = rd.(k) in
        let w = last_writer.(e lsr 1) in
        if w >= 0 then Trace.Builder.add_dep b w (e land 1 <> 0)
      done;
      let row = i * op_stride in
      let kind = trace_op.(row) in
      let flags =
        match marks with
        | None -> trace_op.(row + 3)
        | Some m ->
            for k = r0 to r1 - 1 do
              if bit m.lasts (m.reads + k - r0) then
                Trace.Builder.mark_last b last_writer.(rd.(k) lsr 1)
            done;
            m.reads <- m.reads + r1 - r0;
            if bit m.readers u then trace_op.(row + 3)
            else trace_op.(row + 3) lor Trace.flag_no_ext_reader
      in
      if kind = k_plain then Trace.Builder.push b i ~addr:(-1) flags
      else begin
        let v = ba_get regs trace_op.(row + 1) in
        if kind = k_mem then
          Trace.Builder.push b i ~addr:(Int64.to_int v + trace_op.(row + 2)) flags
        else if kind = k_branch then
          Trace.Builder.push b i ~addr:(-1)
            (if trace_op.(row + 2) land sign_bit v <> 0 then
               flags lor Trace.flag_taken
             else flags)
        else
          Trace.Builder.push b i ~addr:(-1)
            (if Int64.float_of_bits v = 0.0 then flags lor Trace.flag_faulting
             else flags)
      end;
      ignore (step.(i) 1 : int);
      ip := !(run.stop);
      for k = wr_off.(i) to wr_off.(i + 1) - 1 do
        last_writer.(wr.(k)) <- u
      done
    done;
    run.ip <- !ip;
    run.steps <- run.steps + (Trace.Builder.length b - first)

  (* A stored trace of up to [max_steps] instructions from the current
     position, its columns sized for [capacity]. *)
  let trace_span run ~max_steps ~capacity =
    let code = run.code in
    let b =
      Trace.Builder.create code.proto code.program ~capacity
        ~max_reads:code.max_reads
    in
    trace_into run b (Array.make code.nslots (-1)) ~upto:max_steps ~marks:None;
    Trace.Builder.finish b
      (if run.ip < 0 then Trace.Halted else Trace.Steps_exhausted)

  let trace_window run ~max_steps =
    trace_span run ~max_steps ~capacity:(Int.min max_steps max_window)

  (* A stream's pre-pass: runs up to [max_steps] instructions one
     straight-line run per chain call, as [advance_bbv] does, and records
     the first touch of each instruction line a run covers. With
     [release] it also finds the release bits, tracking dependences
     without values, since they follow from which instruction last wrote
     each register: per register slot, the writer and the position of
     that writer's latest external read among the run's register reads
     (see [marks]). A value's last read is final once its register is
     overwritten or the run ends, and its writer then has a reader iff
     that read exists; a writer that still holds another external
     register hands its latest read on instead. Internal registers are
     read only through their via-internal bit, so they carry no latest
     read. *)
  let prepass run ~max_steps ~release =
    let code = run.code and step = run.step and stop = run.stop in
    let run_len = code.run_len in
    let rd_off = code.rd_off and rd = code.rd in
    let wr_off = code.wr_off and wr = code.wr in
    let seen = Bytes.make ((Array.length code.proto lsr 4) + 1) '\000' in
    let lines = ref [] in
    let writer = Array.make code.nslots (-1) in
    let writer_ip = Array.make code.nslots 0 in
    let latest = Array.make code.nslots (-1) in
    let readers = ref (Bytes.make 64 '\000') and lasts = ref (Bytes.make 64 '\000') in
    let internal s = s - Reg.num_ext_ids >= 0 && s < num_fixed_slots in
    (* slot [s]'s writer leaves it: hand its latest read to another of
       the writer's external slots, or make it final *)
    let settle s =
      let w = Array.unsafe_get writer s in
      if w >= 0 then begin
        let wip = Array.unsafe_get writer_ip s and l = Array.unsafe_get latest s in
        let heir = ref (-1) in
        for x = wr_off.(wip) to wr_off.(wip + 1) - 1 do
          let h = Array.unsafe_get wr x in
          if h <> s && (not (internal h)) && Array.unsafe_get writer h = w then heir := h
        done;
        if !heir >= 0 then latest.(!heir) <- Int.max latest.(!heir) l
        else if l >= 0 then begin
          set_bit readers w;
          set_bit lasts l
        end
      end
    in
    let reads = ref 0 and u = ref 0 and ip = ref run.ip in
    while !u < max_steps && !ip >= 0 do
      let i = !ip in
      let fuel = Int.min run_len.(i) (max_steps - !u) in
      let ran = fuel - step.(i) fuel in
      (* a trap slot raised above: [i .. i + ran - 1] are instructions *)
      for line = i lsr 4 to (i + ran - 1) lsr 4 do
        if Bytes.get seen line = '\000' then begin
          Bytes.set seen line '\001';
          lines := (line lsl 6) :: !lines
        end
      done;
      if release then
        for j = i to i + ran - 1 do
          let r0 = Array.unsafe_get rd_off j and r1 = Array.unsafe_get rd_off (j + 1) in
          for r = r0 to r1 - 1 do
            let e = Array.unsafe_get rd r in
            let s = e lsr 1 in
            if e land 1 = 0 && Array.unsafe_get writer s >= 0 then
              Array.unsafe_set latest s (!reads + r - r0)
          done;
          reads := !reads + r1 - r0;
          for x = Array.unsafe_get wr_off j to Array.unsafe_get wr_off (j + 1) - 1 do
            let s = Array.unsafe_get wr x in
            if not (internal s) then settle s;
            Array.unsafe_set writer s (!u + (j - i));
            Array.unsafe_set writer_ip s j;
            Array.unsafe_set latest s (-1)
          done
        done;
      ip := !stop;
      u := !u + ran
    done;
    for s = 0 to code.nslots - 1 do
      if not (internal s) then begin
        settle s;
        writer.(s) <- -1
      end
    done;
    run.ip <- !ip;
    run.steps <- run.steps + !u;
    (!u, Array.of_list (List.rev !lines), { readers = !readers; lasts = !lasts; reads = 0 })

  (* The warm-up walk keeps only what a warm-up replays: the static
     index, and the address or branch outcome read from the registers
     before the step. It makes one chain call per segment ([seg_len]):
     only a segment's first instruction may need a register read, and
     the rest are plain. *)
  let warm_window run (w : Trace.Warm.t) ~max_steps =
    if max_steps > Trace.Warm.capacity w then
      invalid_arg
        (Printf.sprintf "Compiled.warm_window: %d steps into a buffer of %d"
           max_steps (Trace.Warm.capacity w));
    let code = run.code and regs = run.regs and step = run.step in
    let n = Array.length code.proto in
    let trace_op = code.trace_op and seg_len = code.seg_len in
    Trace.Warm.reset w code.proto;
    let k = ref 0 in
    let ip = ref run.ip in
    while !k < max_steps && !ip >= 0 do
      let i = !ip in
      (* a run parked on a trap slot raises its control-flow failure *)
      if i >= n then ignore (step.(i) 1 : int);
      let row = i * op_stride in
      let kind = trace_op.(row) in
      let v =
        if kind = k_mem then
          Int64.to_int (ba_get regs trace_op.(row + 1)) + trace_op.(row + 2)
        else if kind = k_branch then
          Bool.to_int
            (trace_op.(row + 2) land sign_bit (ba_get regs trace_op.(row + 1))
            <> 0)
        else 0
      in
      let len = Int.min seg_len.(i) (max_steps - !k) in
      let ran = len - step.(i) len in
      Trace.Warm.push w i ~len:ran v;
      ip := !(run.stop);
      k := !k + ran
    done;
    run.ip <- !ip;
    run.steps <- run.steps + !k

  type snapshot = {
    s_regs : int64 array;
    s_mem : Braid_util.Paged_mem.snapshot;
    s_ip : int;
    s_steps : int;
    s_stores : int;
  }

  let snapshot run =
    {
      s_regs = Array.init (Bigarray.Array1.dim run.regs) (ba_get run.regs);
      s_mem = Braid_util.Paged_mem.snapshot run.mem;
      s_ip = run.ip;
      s_steps = run.steps;
      s_stores = !(run.stores);
    }

  let restore run snap =
    if Array.length snap.s_regs <> Bigarray.Array1.dim run.regs then
      invalid_arg "Compiled.restore: snapshot from a different program";
    Array.iteri (ba_set run.regs) snap.s_regs;
    Braid_util.Paged_mem.restore run.mem snap.s_mem;
    run.ip <- snap.s_ip;
    run.steps <- snap.s_steps;
    run.stores := snap.s_stores
end

(* Both modes run the compiled engine: the tracer for [trace], the
   fast path otherwise. A trace is first counted by an untraced run, a
   few percent of the tracer's time, so its columns are allocated once
   at their exact length and written once. *)
let run ?(max_steps = 1_000_000) ?(trace = true) ?init_mem program =
  let code = Compiled.compile program in
  let r = Compiled.start ?init_mem code in
  let trace =
    if trace then
      let n = Compiled.advance (Compiled.start ?init_mem code) ~fuel:max_steps in
      Some (Compiled.trace_span r ~max_steps:n ~capacity:n)
    else begin
      ignore (Compiled.advance r ~fuel:max_steps : int);
      None
    end
  in
  {
    trace;
    stop = (if Compiled.halted r then Trace.Halted else Trace.Steps_exhausted);
    dynamic_count = Compiled.steps r;
    store_count = Compiled.store_count r;
    state = Compiled.state r;
  }

(* A stream: the pre-pass on one run, then the tracer on a second one,
   whose last-writer table lives as long as the stream. *)
let stream ?(max_steps = 1_000_000) ?init_mem ?(release = true) ~capacity program =
  let code = Compiled.compile program in
  let pre = Compiled.start ?init_mem code in
  let n, warm_lines, marks = Compiled.prepass pre ~max_steps ~release in
  let stop = if Compiled.halted pre then Trace.Halted else Trace.Steps_exhausted in
  let run = Compiled.start ?init_mem code in
  let last_writer = Array.make code.Compiled.nslots (-1) in
  let marks = if release then Some marks else None in
  Trace.stream code.Compiled.proto code.Compiled.program ~capacity
    ~max_reads:code.Compiled.max_reads ~length:n ~stop ~warm_lines ~marked:release
    (fun b upto -> Compiled.trace_into run b last_writer ~upto ~marks)

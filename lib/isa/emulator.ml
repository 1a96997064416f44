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

(* Result of executing one operation, before trace bookkeeping. *)
type exec_result = {
  written : (Reg.t * int64) list;
  mem_addr : int;  (* -1 if not a memory op *)
  was_store : bool;
  fault : bool;
  transfer : Op.label option;  (* Some target if a taken branch/jump *)
  halt : bool;
}

let no_effect =
  { written = []; mem_addr = -1; was_store = false; fault = false;
    transfer = None; halt = false }

let exec_op st (ins : Instr.t) : exec_result =
  let r = read_reg st in
  let as_f x = Int64.float_of_bits x in
  let of_f x = Int64.bits_of_float x in
  match ins.Instr.op with
  | Op.Nop -> no_effect
  | Op.Ibin (o, d, a, b) ->
      { no_effect with written = [ (d, Op.eval_ibin o (r a) (r b)) ] }
  | Op.Ibini (o, d, a, i) ->
      { no_effect with written = [ (d, Op.eval_ibin o (r a) (Int64.of_int i)) ] }
  | Op.Movi (d, v) -> { no_effect with written = [ (d, v) ] }
  | Op.Fbin (o, d, a, b) -> (
      match Op.eval_fbin o (as_f (r a)) (as_f (r b)) with
      | Some v -> { no_effect with written = [ (d, of_f v) ] }
      | None -> { no_effect with written = [ (d, 0L) ]; fault = true })
  | Op.Funary (o, d, a) ->
      { no_effect with written = [ (d, Op.eval_funary o (r a)) ] }
  | Op.Cmov (c, d, test, v) ->
      let value = if Op.eval_cond c (r test) then r v else r d in
      { no_effect with written = [ (d, value) ] }
  | Op.Load (d, base, off, _) ->
      let addr = Int64.to_int (r base) + off in
      check_aligned addr;
      { no_effect with written = [ (d, read_mem_word st addr) ]; mem_addr = addr }
  | Op.Store (s, base, off, _) ->
      let addr = Int64.to_int (r base) + off in
      check_aligned addr;
      Braid_util.Paged_mem.store st.mem addr (r s);
      { no_effect with mem_addr = addr; was_store = true }
  | Op.Branch (c, reg, l) ->
      if Op.eval_cond c (r reg) then { no_effect with transfer = Some l }
      else no_effect
  | Op.Jump l -> { no_effect with transfer = Some l }
  | Op.Halt -> { no_effect with halt = true }

(* Destination/value pairs of one executed instruction, with the ext_dup
   duplicate destination (I and E both set) mirrored onto the external
   copy. Shared between [run] and the oracle-facing [exec_instr]. *)
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

(* Dense slot per register for the writer table: externals by [ext_id],
   then internals, then virtuals (two classes interleaved). *)
let num_fixed_slots = Reg.num_ext_ids + Reg.num_internal

let reg_slot (r : Reg.t) =
  match r.Reg.space with
  | Reg.Ext -> Reg.ext_id r
  | Reg.Intern -> Reg.num_ext_ids + r.Reg.idx
  | Reg.Virt ->
      num_fixed_slots + (2 * r.Reg.idx)
      + (match r.Reg.cls with Reg.Cint -> 0 | Reg.Cfp -> 1)

(* One bounded execution episode starting from an arbitrary (block, offset)
   location in an existing state. [run] starts it at the program entry with a
   fresh state; the compiled fast path (module [Compiled] below) uses it to
   trace a window from the middle of a fast-forwarded execution, so sampled
   simulation shares the interpreter's exact semantics and event layout.
   Event uids (and the dependence table) restart at 0 for each episode:
   a mid-run window is a self-contained trace whose dependences on
   pre-window producers are dropped, which is precisely what a timing model
   fed only that window must see. *)
type episode = {
  x_events : Trace.event list;  (* newest first *)
  x_stop : Trace.stop_reason;
  x_steps : int;
  x_stores : int;
  x_next : (int * int) option;  (* resume location; [None] once halted *)
}

let exec_from st program ~max_steps ~trace ~start_block ~start_offset =
  let bases = Program.base_table program in
  let pc_of blk off = 4 * (bases.(blk) + off) in
  (* last writer uid per register slot; -1 = no dynamic writer yet *)
  let last_writer =
    Array.make
      (num_fixed_slots + (2 * (Program.max_virt_index program + 1)))
      (-1)
  in
  let events = ref [] in
  let uid = ref 0 in
  let store_count = ref 0 in
  let stop = ref Trace.Steps_exhausted in
  let block = ref start_block in
  let offset = ref start_offset in
  let running = ref true in
  while !running && !uid < max_steps do
    let b = program.Program.blocks.(!block) in
    if !offset >= Array.length b.Program.instrs then begin
      (* empty tail: unconditional fallthrough *)
      match b.Program.fallthrough with
      | Some ft ->
          block := ft;
          offset := 0
      | None -> failwith "Emulator: fell off a block without fallthrough"
    end
    else begin
      let ins = b.Program.instrs.(!offset) in
      let res = exec_op st ins in
      if res.was_store then incr store_count;
      let written = written_of ins res in
      List.iter (fun (reg, v) -> write_reg st reg v) written;
      (* Determine the next dynamic location. *)
      let next_loc =
        if res.halt then None
        else
          match res.transfer with
          | Some target -> Some (target, 0)
          | None ->
              if !offset + 1 < Array.length b.Program.instrs then
                Some (!block, !offset + 1)
              else (
                match b.Program.fallthrough with
                | Some ft -> Some (ft, 0)
                | None -> failwith "Emulator: missing fallthrough")
      in
      if trace then begin
        let deps =
          List.filter_map
            (fun (reg : Reg.t) ->
              if Reg.is_zero reg then None
              else
                let w = last_writer.(reg_slot reg) in
                if w < 0 then None
                else Some (w, reg.Reg.space = Reg.Intern))
            (Instr.uses ins)
        in
        let deps = List.sort_uniq compare deps in
        let is_cond_branch =
          match ins.Instr.op with Op.Branch _ -> true | _ -> false
        in
        let is_jump = match ins.Instr.op with Op.Jump _ -> true | _ -> false in
        let taken =
          if is_cond_branch then res.transfer <> None else is_jump
        in
        let pc = pc_of !block !offset in
        let next_pc =
          match next_loc with
          | Some (nb, noff) -> pc_of nb noff
          | None -> pc
        in
        let ev =
          {
            Trace.uid = !uid;
            pc;
            block_id = !block;
            offset = !offset;
            instr = ins;
            deps = Array.of_list deps;
            addr = res.mem_addr;
            is_load = Op.is_load ins.Instr.op;
            is_store = res.was_store;
            is_cond_branch;
            is_jump;
            taken;
            next_pc;
            latency = Op.latency ins.Instr.op;
            writes_ext = Instr.writes_external ins;
            writes_int = Instr.writes_internal ins;
            ext_src_reads = Instr.reads_external_count ins;
            int_src_reads =
              List.length
                (List.filter
                   (fun (r : Reg.t) -> r.Reg.space = Reg.Intern)
                   (Instr.uses ins));
            braid_id = ins.Instr.annot.Instr.braid_id;
            braid_start = ins.Instr.annot.Instr.braid_start;
            faulting = res.fault;
          }
        in
        events := ev :: !events;
        List.iter
          (fun ((reg : Reg.t), _) ->
            if not (Reg.is_zero reg) then last_writer.(reg_slot reg) <- !uid)
          written
      end;
      incr uid;
      match next_loc with
      | None ->
          stop := Trace.Halted;
          running := false
      | Some (nb, noff) ->
          block := nb;
          offset := noff
    end
  done;
  {
    x_events = !events;
    x_stop = !stop;
    x_steps = !uid;
    x_stores = !store_count;
    x_next = (if !running then Some (!block, !offset) else None);
  }

let run ?(max_steps = 1_000_000) ?(trace = true) ?(init_mem = []) program =
  let st = init_state ~init_mem () in
  let x =
    exec_from st program ~max_steps ~trace ~start_block:program.Program.entry
      ~start_offset:0
  in
  let trace_v =
    if trace then
      Some
        {
          Trace.events = Array.of_list (List.rev x.x_events);
          stop = x.x_stop;
          program;
          warm_lines = None;
          tables = None;
        }
    else None
  in
  {
    trace = trace_v;
    stop = x.x_stop;
    dynamic_count = x.x_steps;
    store_count = x.x_stores;
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
     hold closures that raise the interpreter's control-flow failures. *)
  type code = {
    program : Program.t;
    flat : Instr.t array;
    block_of : int array;  (* sized n+2; the trap slots map to block 0 *)
    offset_of : int array;
    next_ip : int array;  (* fallthrough successor (flat or trap ip) *)
    target_ip : int array;  (* branch/jump target entry ip; -1 when none *)
    block_entry : int array;  (* first executed ip when entering a block *)
    dup_slot : int array;  (* auxiliary chain slot of an ext_dup instr; -1 *)
    entry_ip : int;
    nslots : int;
    n_imm : int;
    n_dup : int;
  }

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
    let flat = Array.make n (Instr.make Op.Halt) in
    let block_of = Array.make (n + 2) 0 in
    let offset_of = Array.make n 0 in
    let next_ip = Array.make n trap_missing in
    let target_ip = Array.make n (-1) in
    let dup_slot = Array.make n (-1) in
    let n_imm = ref 0 in
    let n_dup = ref 0 in
    Program.iter_instrs
      (fun blk off ins ->
        let ip = bases.(blk.Program.id) + off in
        flat.(ip) <- ins;
        block_of.(ip) <- blk.Program.id;
        offset_of.(ip) <- off;
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
    {
      program;
      flat;
      block_of;
      offset_of;
      next_ip;
      target_ip;
      block_entry;
      dup_slot;
      entry_ip =
        (if nb = 0 then trap_fell_off else block_entry.(program.Program.entry));
      nslots = num_fixed_slots + (2 * (Program.max_virt_index program + 1));
      n_imm = !n_imm;
      n_dup = !n_dup;
    }

  let num_blocks code = Array.length code.program.Program.blocks
  let program code = code.program

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
        (* page-cache hit test inlined: without cross-module inlining a
           call per access costs more than the access itself *)
        let d = ws d and b = rs base in
        let cidx, cpage = Braid_util.Paged_mem.cache_arrays mem in
        let cmask = Braid_util.Paged_mem.cache_slots - 1 in
        let wmask = Braid_util.Paged_mem.words_per_page - 1 in
        fun fuel ->
          if fuel = 0 then (stop := ip; 0)
          else begin
            let addr = Int64.to_int (ba_get regs b) + off in
            check_aligned addr;
            let pidx = addr lsr 12 in
            let p =
              if Array.unsafe_get cidx (pidx land cmask) = pidx then
                Array.unsafe_get cpage (pidx land cmask)
              else Braid_util.Paged_mem.page_for_load mem addr
            in
            ba_set regs d
              (Braid_util.Paged_mem.page_get p ((addr lsr 3) land wmask));
            (Array.unsafe_get step next) (fuel - 1)
          end
    | Op.Store (s, base, off, _) ->
        let s = rs s and b = rs base in
        let cidx, cpage = Braid_util.Paged_mem.cache_arrays mem in
        let cmask = Braid_util.Paged_mem.cache_slots - 1 in
        let wmask = Braid_util.Paged_mem.words_per_page - 1 in
        let zp = Braid_util.Paged_mem.zero_page in
        fun fuel ->
          if fuel = 0 then (stop := ip; 0)
          else begin
            let addr = Int64.to_int (ba_get regs b) + off in
            check_aligned addr;
            let pidx = addr lsr 12 in
            let p =
              if Array.unsafe_get cidx (pidx land cmask) = pidx then
                Array.unsafe_get cpage (pidx land cmask)
              else zp
            in
            let p =
              if p != zp then p else Braid_util.Paged_mem.page_for_store mem addr
            in
            Braid_util.Paged_mem.page_set p
              ((addr lsr 3) land wmask)
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
    let n = Array.length code.flat in
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
        make_step regs mem stores scratch alloc_imm step stop code.flat.(ip)
          ~ip ~next ~target:code.target_ip.(ip);
      if aux >= 0 then begin
        (* the (I and E) duplicate destination reads back the just-written
           primary slot, which written_of mirrors in the interpreter; the
           copy lives in an auxiliary chain slot that consumes no fuel, so
           the main closure and the copy together count as one step *)
        let ins = code.flat.(ip) in
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

  (* Single-stepping through the chain ([fuel = 1] executes exactly one
     instruction and parks on the successor) costs roughly twice the fast
     path, which the once-per-program profiling pass can afford. *)
  let advance_bbv run ~fuel ~counts =
    if fuel < 0 then invalid_arg "Compiled.advance_bbv: negative fuel";
    let step = run.step and block_of = run.code.block_of and stop = run.stop in
    let ip = ref run.ip in
    let n = ref 0 in
    while !n < fuel && !ip >= 0 do
      let b = Array.unsafe_get block_of !ip in
      counts.(b) <- counts.(b) + 1;
      ignore ((Array.unsafe_get step !ip) 1 : int);
      ip := !stop;
      incr n
    done;
    run.ip <- !ip;
    run.steps <- run.steps + !n;
    !n

  let halted run = run.ip < 0
  let steps run = run.steps
  let store_count run = !(run.stores)

  (* An architectural [state] view of the run: register arrays are copied,
     memory is shared by reference. *)
  let state_of run =
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

  let absorb run (st : state) =
    let regs = run.regs in
    for i = 0 to Reg.num_ext_per_class - 1 do
      (* slot 31 is the zero register: the interpreter never writes
         st.ext_int.(31), so this writes back its invariant 0 *)
      ba_set regs (reg_slot (Reg.ext Reg.Cint i)) st.ext_int.(i);
      ba_set regs (reg_slot (Reg.ext Reg.Cfp i)) st.ext_fp.(i)
    done;
    for i = 0 to Reg.num_internal - 1 do
      ba_set regs (reg_slot (Reg.intern i)) st.intern.(i)
    done;
    for i = 0 to Program.max_virt_index run.code.program do
      ba_set regs
        (num_fixed_slots + (2 * i))
        (read_reg st (Reg.virt Reg.Cint i));
      ba_set regs
        (num_fixed_slots + (2 * i) + 1)
        (read_reg st (Reg.virt Reg.Cfp i))
    done

  let trace_window run ~max_steps =
    let code = run.code in
    (* a run parked on a trap slot raises the interpreter's failure now *)
    if run.ip >= Array.length code.flat then
      ignore (run.step.(run.ip) 1 : int);
    if run.ip < 0 then
      {
        Trace.events = [||];
        stop = Trace.Halted;
        program = code.program;
        warm_lines = None;
        tables = None;
      }
    else begin
      let st = state_of run in
      let x =
        exec_from st code.program ~max_steps ~trace:true
          ~start_block:code.block_of.(run.ip)
          ~start_offset:code.offset_of.(run.ip)
      in
      absorb run st;
      run.steps <- run.steps + x.x_steps;
      run.stores := !(run.stores) + x.x_stores;
      run.ip <-
        (match x.x_next with
        | None -> -1
        | Some (b, off) ->
            if off = 0 then code.block_entry.(b)
            else (Program.base_table code.program).(b) + off);
      let events = Array.of_list (List.rev x.x_events) in
      (* A window may open mid-braid; the braid core only accepts an
         instruction stream whose first braid event claims a BEU, so the
         leading event is promoted to a braid start — the tail of the
         cut-off braid instance is timed as a (short) instance of its
         own. *)
      if Array.length events > 0 then begin
        let e0 = events.(0) in
        if e0.Trace.braid_id >= 0 && not e0.Trace.braid_start then
          events.(0) <- { e0 with Trace.braid_start = true }
      end;
      {
        Trace.events;
        stop = x.x_stop;
        program = code.program;
        warm_lines = None;
        tables = None;
      }
    end

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

  let state = state_of

  let execute ?(max_steps = 1_000_000) ?(init_mem = []) program =
    let run = start ~init_mem (compile program) in
    let (_ : int) = advance run ~fuel:max_steps in
    {
      trace = None;
      stop = (if run.ip < 0 then Trace.Halted else Trace.Steps_exhausted);
      dynamic_count = run.steps;
      store_count = !(run.stores);
      state = state_of run;
    }
end

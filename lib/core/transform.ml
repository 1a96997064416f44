type report = {
  program : Program.t;
  alloc : Extalloc.result;
  braids : int;
  splits_working_set : int;
  splits_ordering : int;
}

(* Reaching definition (instruction index) for register [r] at each
   instruction, as a per-instruction table. *)
let reach_tables (b : Program.block) =
  let last_def : (Reg.t, int) Hashtbl.t = Hashtbl.create 16 in
  Array.mapi
    (fun i ins ->
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun r ->
          if Regset.tracked r then
            match Hashtbl.find_opt last_def r with
            | Some d -> Hashtbl.replace tbl r d
            | None -> ())
        (Instr.uses ins);
      List.iter
        (fun r -> if Regset.tracked r then Hashtbl.replace last_def r i)
        (Instr.defs ins);
      tbl)
    b.Program.instrs

(* Assign internal register indices to internal definitions, braid by
   braid, with a linear scan over the braid's members in original order.
   Returns the index per defining instruction. The working-set splits in
   {!Braid.analyze} guarantee this never runs out of registers. *)
let assign_internals (a : Braid.analysis) cons ~max_internal =
  let n = Array.length a.Braid.ids in
  let int_reg_of = Array.make n (-1) in
  for bid = 0 to a.Braid.count - 1 do
    let mem =
      Array.to_list a.Braid.order
      |> List.filter (fun i -> a.Braid.ids.(i) = bid)
      |> List.sort compare
    in
    let free = ref (List.init max_internal (fun i -> i)) in
    let releases = ref [] in
    (* (last_use, reg) *)
    List.iter
      (fun t ->
        let still, done_ =
          List.partition (fun (lu, _) -> lu >= t) !releases
        in
        List.iter (fun (_, k) -> free := List.sort compare (k :: !free)) done_;
        releases := still;
        if a.Braid.internal.(t) then begin
          match !free with
          | [] ->
              failwith "Transform.assign_internals: working-set bound violated"
          | k :: rest ->
              free := rest;
              int_reg_of.(t) <- k;
              let in_braid =
                List.filter (fun c -> a.Braid.ids.(c) = bid) cons.(t)
              in
              let last = List.fold_left max t in_braid in
              releases := (last, k) :: !releases
        end)
      mem
  done;
  int_reg_of

let rewrite_block ~max_internal ~live_out ~braid_base (b : Program.block) =
  let a = Braid.analyze ~max_internal ~live_out b in
  let cons = Braid.consumers b in
  let reach = reach_tables b in
  let int_reg_of = assign_internals a cons ~max_internal in
  let rewrite t (ins : Instr.t) =
    let map_use (r : Reg.t) =
      (* A use reads the internal register only when its reaching
         definition is internal AND lives in the same braid; consumers in
         other braids (possible after splits, the I+E case) read the
         external copy. *)
      match Hashtbl.find_opt reach.(t) r with
      | Some d
        when a.Braid.internal.(d)
             && int_reg_of.(d) >= 0
             && a.Braid.ids.(d) = a.Braid.ids.(t) ->
          Reg.intern int_reg_of.(d)
      | Some _ | None -> r
    in
    (* Rewrite uses first. map_regs hits defs too; we re-install the def
       afterwards, so only instructions whose def register equals a use
       register need care — handled by re-installing the def. *)
    let op = ins.Instr.op in
    let defs = List.filter Regset.tracked (Op.defs op) in
    let op =
      match op with
      | Op.Ibin (o, d, x, y) -> Op.Ibin (o, d, map_use x, map_use y)
      | Op.Ibini (o, d, x, i) -> Op.Ibini (o, d, map_use x, i)
      | Op.Movi _ -> op
      | Op.Fbin (o, d, x, y) -> Op.Fbin (o, d, map_use x, map_use y)
      | Op.Funary (o, d, x) -> Op.Funary (o, d, map_use x)
      | Op.Cmov (c, d, test, v) -> Op.Cmov (c, d, map_use test, map_use v)
      | Op.Load (d, base, off, rg) -> Op.Load (d, map_use base, off, rg)
      | Op.Store (s, base, off, rg) -> Op.Store (map_use s, map_use base, off, rg)
      | Op.Branch (c, r, l) -> Op.Branch (c, map_use r, l)
      | Op.Nop | Op.Jump _ | Op.Halt -> op
    in
    (* Now the destination: rewritten structurally (never via map_regs,
       which would also clobber a same-register source that resolved to an
       external reaching definition). *)
    let set_def op nd =
      match op with
      | Op.Ibin (o, _, x, y) -> Op.Ibin (o, nd, x, y)
      | Op.Ibini (o, _, x, i) -> Op.Ibini (o, nd, x, i)
      | Op.Movi (_, v) -> Op.Movi (nd, v)
      | Op.Fbin (o, _, x, y) -> Op.Fbin (o, nd, x, y)
      | Op.Funary (o, _, x) -> Op.Funary (o, nd, x)
      | Op.Load (_, base, off, rg) -> Op.Load (nd, base, off, rg)
      | Op.Cmov _ -> assert false (* cmov destinations are never internal *)
      | Op.Nop | Op.Store _ | Op.Branch _ | Op.Jump _ | Op.Halt ->
          assert false (* no destination *)
    in
    let op, ext_dup =
      match defs with
      | [ d ] when a.Braid.internal.(t) && int_reg_of.(t) >= 0 ->
          let op = set_def op (Reg.intern int_reg_of.(t)) in
          (op, if a.Braid.internal_and_external.(t) then Some d else None)
      | _ -> (op, None)
    in
    let annot =
      {
        Instr.braid_id = braid_base + a.Braid.ids.(t);
        braid_start = false (* recomputed by the fix-up pass *);
        ext_dup;
        origin = ins.Instr.annot.Instr.origin;
      }
    in
    { Instr.op; annot }
  in
  let instrs = Array.map (fun t -> rewrite t b.Program.instrs.(t)) a.Braid.order in
  ({ b with Program.instrs }, a)

(* After external allocation inserted spill code (annot braid_id = -1),
   attach each inserted instruction to a neighbouring braid and recompute
   the S bits from braid-id transitions. *)
let fixup_annotations (b : Program.block) =
  let n = Array.length b.Program.instrs in
  let ids = Array.map (fun ins -> ins.Instr.annot.Instr.braid_id) b.Program.instrs in
  for i = 0 to n - 1 do
    if ids.(i) < 0 then begin
      let next = ref (-1) in
      (try
         for j = i + 1 to n - 1 do
           if ids.(j) >= 0 then begin
             next := ids.(j);
             raise Exit
           end
         done
       with Exit -> ());
      let prev = if i > 0 then ids.(i - 1) else -1 in
      let is_store = Op.is_store b.Program.instrs.(i).Instr.op in
      ids.(i) <-
        (if is_store && prev >= 0 then prev
         else if !next >= 0 then !next
         else if prev >= 0 then prev
         else 0)
    end
  done;
  let instrs =
    Array.mapi
      (fun i ins ->
        let start = i = 0 || ids.(i) <> ids.(i - 1) in
        {
          ins with
          Instr.annot =
            { ins.Instr.annot with Instr.braid_id = ids.(i); braid_start = start };
        })
      b.Program.instrs
  in
  { b with Program.instrs }

(* Every block rewritten into braids numbered program-wide, then passed
   through [finish], with the braid and split counts. No allocation pass
   runs here: the report's allocation is the identity, which [run]
   replaces with its own. *)
let braided ~max_internal ~finish p =
  let live = Dataflow.liveness p in
  let braids = ref 0 and splits_ws = ref 0 and splits_ord = ref 0 in
  let blocks =
    Array.map
      (fun (b : Program.block) ->
        let live_out = live.Dataflow.live_out.(b.Program.id) in
        let nb, a = rewrite_block ~max_internal ~live_out ~braid_base:!braids b in
        braids := !braids + a.Braid.count;
        splits_ws := !splits_ws + a.Braid.splits_working_set;
        splits_ord := !splits_ord + a.Braid.splits_ordering;
        finish nb)
      p.Program.blocks
  in
  (* re-validate structural invariants *)
  let program = Program.map_blocks (fun b -> b) { p with Program.blocks } in
  {
    program;
    alloc = { Extalloc.program; spilled = 0; spill_loads = 0; spill_stores = 0 };
    braids = !braids;
    splits_working_set = !splits_ws;
    splits_ordering = !splits_ord;
  }

let run ?(max_internal = Reg.num_internal) ?ext_usable p =
  let r = braided ~max_internal ~finish:Fun.id p in
  let alloc = Extalloc.allocate ?usable:ext_usable r.program in
  let program = Program.map_blocks fixup_annotations alloc.Extalloc.program in
  { r with program; alloc = { alloc with Extalloc.program } }

let conventional p = Extalloc.allocate p

(* The paper's own methodology: braid formation over a PREEXISTING,
   already-allocated binary (their binary profiling + translation tools).
   Identification, splitting, scheduling and internal rewriting are the
   same analyses, over architectural instead of virtual registers; no
   external allocation pass runs (the binary has one), so the conditions
   of §3.1 appear exactly as the paper describes them: artifacts of
   translating code a braid-unaware compiler produced. *)
let run_binary ?(max_internal = Reg.num_internal) p =
  if Program.max_virt_index p >= 0 then
    invalid_arg "Transform.run_binary: input must be fully allocated";
  braided ~max_internal ~finish:fixup_annotations p

type braid_info = {
  block_id : int;
  braid_id : int;
  size : int;
  depth : int;
  width : float;
  internals : int;
  ext_inputs : int;
  ext_outputs : int;
  is_single : bool;
  is_branch_or_nop_single : bool;
}

type t = {
  braids : braid_info list;
  blocks : int;
}

(* Longest dataflow path within one braid, following reaching-definition
   edges restricted to braid members. [members] are original indices in
   block order; [reach] maps an instruction index to its in-block
   producers. *)
let braid_depth members reach ids bid =
  let depth = Hashtbl.create 8 in
  List.fold_left
    (fun acc i ->
      let producers = List.filter (fun d -> ids.(d) = bid) reach.(i) in
      let d =
        1
        + List.fold_left
            (fun m p -> max m (try Hashtbl.find depth p with Not_found -> 0))
            0 producers
      in
      Hashtbl.replace depth i d;
      max acc d)
    1 members

let block_braids (b : Program.block) =
  let n = Array.length b.Program.instrs in
  if n = 0 then []
  else begin
    let ids = Array.map (fun ins -> ins.Instr.annot.Instr.braid_id) b.Program.instrs in
    (* in-block producers per instruction, over the final (allocated)
       code: (register, producer index) pairs per use *)
    let last_def : (Reg.t, int) Hashtbl.t = Hashtbl.create 16 in
    let reach_pairs =
      Array.mapi
        (fun i ins ->
          let prods =
            List.filter_map
              (fun r ->
                if Regset.tracked r then
                  Option.map (fun d -> (r, d)) (Hashtbl.find_opt last_def r)
                else None)
              (Instr.uses ins)
          in
          List.iter
            (fun r -> if Regset.tracked r then Hashtbl.replace last_def r i)
            (Instr.defs ins);
          prods)
        b.Program.instrs
    in
    let reach = Array.map (List.map snd) reach_pairs in
    let bids = List.sort_uniq compare (Array.to_list ids) in
    List.map
      (fun bid ->
        let members = ref [] in
        Array.iteri (fun i id -> if id = bid then members := i :: !members) ids;
        let members = List.rev !members in
        let size = List.length members in
        let depth = braid_depth members reach ids bid in
        let internals =
          List.length
            (List.filter
               (fun i ->
                 List.exists
                   (fun (r : Reg.t) -> r.Reg.space = Reg.Intern)
                   (Op.defs b.Program.instrs.(i).Instr.op))
               members)
        in
        let ext_inputs =
          (* distinct external registers read by the braid whose reaching
             producer is outside the braid (or outside the block) *)
          let inputs = ref Regset.Set.empty in
          List.iter
            (fun i ->
              List.iter
                (fun (r : Reg.t) ->
                  if Regset.tracked r && r.Reg.space = Reg.Ext then
                    let produced_in_braid =
                      List.exists
                        (fun (r', d) -> Reg.equal r r' && ids.(d) = bid)
                        reach_pairs.(i)
                    in
                    if not produced_in_braid then inputs := Regset.Set.add r !inputs)
                (Instr.uses b.Program.instrs.(i)))
            members;
          Regset.Set.cardinal !inputs
        in
        let ext_outputs =
          List.length
            (List.filter
               (fun i -> Instr.writes_external b.Program.instrs.(i))
               members)
        in
        let is_single = size = 1 in
        let is_branch_or_nop_single =
          is_single
          &&
          match members with
          | [ i ] -> (
              match b.Program.instrs.(i).Instr.op with
              | Op.Branch _ | Op.Jump _ | Op.Nop | Op.Halt -> true
              | _ -> false)
          | _ -> false
        in
        {
          block_id = b.Program.id;
          braid_id = bid;
          size;
          depth;
          width = float_of_int size /. float_of_int (max 1 depth);
          internals;
          ext_inputs;
          ext_outputs;
          is_single;
          is_branch_or_nop_single;
        })
      bids
  end

let of_program p =
  let braids = ref [] and blocks = ref 0 in
  Array.iter
    (fun (b : Program.block) ->
      if Array.length b.Program.instrs > 0 then begin
        incr blocks;
        braids := block_braids b @ !braids
      end)
    p.Program.blocks;
  { braids = List.rev !braids; blocks = !blocks }

type summary = {
  braids_per_block : float;
  braids_per_block_multi : float;
  avg_size : float;
  avg_size_multi : float;
  avg_width : float;
  avg_width_multi : float;
  avg_internals : float;
  avg_internals_multi : float;
  avg_ext_inputs : float;
  avg_ext_inputs_multi : float;
  avg_ext_outputs : float;
  avg_ext_outputs_multi : float;
  single_instr_fraction : float;
  single_branch_nop_fraction : float;
}

let favg f xs =
  match xs with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun acc x -> acc +. f x) 0.0 xs
      /. float_of_int (List.length xs)

type dynamic = {
  instances : int;
  dyn_braids_per_block : float;
  dyn_avg_size : float;
  dyn_avg_size_multi : float;
  dyn_single_fraction : float;
}

let dynamic_of_trace (trace : Trace.t) =
  let instances = ref 0 in
  let block_visits = ref 0 in
  let singles = ref 0 in
  let multi_instrs = ref 0 and multi_instances = ref 0 in
  let cur_size = ref 0 in
  let last_block = ref (-1) in
  let close_instance () =
    if !cur_size = 1 then incr singles
    else if !cur_size > 1 then begin
      incr multi_instances;
      multi_instrs := !multi_instrs + !cur_size
    end;
    cur_size := 0
  in
  let n = Trace.length trace in
  for u = 0 to n - 1 do
    let e = Trace.static trace u in
    if e.Trace.block_id <> !last_block || e.Trace.offset = 0 then begin
      last_block := e.Trace.block_id;
      incr block_visits
    end;
    if Trace.braid_start trace u then begin
      close_instance ();
      incr instances
    end;
    incr cur_size
  done;
  close_instance ();
  let fi = float_of_int in
  {
    instances = !instances;
    dyn_braids_per_block = fi !instances /. fi (max 1 !block_visits);
    dyn_avg_size = fi n /. fi (max 1 !instances);
    dyn_avg_size_multi = fi !multi_instrs /. fi (max 1 !multi_instances);
    dyn_single_fraction = fi !singles /. fi (max 1 n);
  }

let summarize t =
  let all = t.braids in
  let multi = List.filter (fun b -> not b.is_single) all in
  let singles = List.filter (fun b -> b.is_single) all in
  let instrs = List.fold_left (fun acc b -> acc + b.size) 0 all in
  let blocks = float_of_int (max 1 t.blocks) in
  {
    braids_per_block = float_of_int (List.length all) /. blocks;
    braids_per_block_multi = float_of_int (List.length multi) /. blocks;
    avg_size = favg (fun b -> float_of_int b.size) all;
    avg_size_multi = favg (fun b -> float_of_int b.size) multi;
    avg_width = favg (fun b -> b.width) all;
    avg_width_multi = favg (fun b -> b.width) multi;
    avg_internals = favg (fun b -> float_of_int b.internals) all;
    avg_internals_multi = favg (fun b -> float_of_int b.internals) multi;
    avg_ext_inputs = favg (fun b -> float_of_int b.ext_inputs) all;
    avg_ext_inputs_multi = favg (fun b -> float_of_int b.ext_inputs) multi;
    avg_ext_outputs = favg (fun b -> float_of_int b.ext_outputs) all;
    avg_ext_outputs_multi = favg (fun b -> float_of_int b.ext_outputs) multi;
    single_instr_fraction =
      (if instrs = 0 then 0.0
       else float_of_int (List.length singles) /. float_of_int instrs);
    single_branch_nop_fraction =
      (match singles with
      | [] -> 0.0
      | _ ->
          float_of_int
            (List.length (List.filter (fun b -> b.is_branch_or_nop_single) singles))
          /. float_of_int (List.length singles));
  }

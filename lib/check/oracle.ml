module Transform = Braid_core.Transform
module Extalloc = Braid_core.Extalloc
module Config = Braid_uarch.Config
module Core = Braid_uarch.Core
module Probe = Braid_uarch.Probe

type divergence = { core : string; kind : string; detail : string }

type core_report = {
  kind : Config.core_kind;
  name : string;
  cycles : int;
  violations : Probe.violation list;
  violation_count : int;
}

type report = {
  divergences : divergence list;
  cores : core_report list;
  dynamic_count : int;
}

let ok r =
  r.divergences = [] && List.for_all (fun c -> c.violation_count = 0) r.cores

(* Fuzz cases are a few thousand dynamic instructions; a case that runs
   this long is a generator bug worth reporting, not waiting out. *)
let max_steps = 200_000

let mem_diff expected got =
  let rec first = function
    | [], [] -> "images equal?"
    | (a, v) :: _, [] -> Printf.sprintf "missing %#x=%Ld" a v
    | [], (a, v) :: _ -> Printf.sprintf "extra %#x=%Ld" a v
    | (a1, v1) :: t1, (a2, v2) :: t2 ->
        if a1 = a2 && v1 = v2 then first (t1, t2)
        else if a1 = a2 then Printf.sprintf "%#x: expected %Ld, got %Ld" a1 v1 v2
        else if a1 < a2 then Printf.sprintf "missing %#x=%Ld" a1 v1
        else Printf.sprintf "extra %#x=%Ld" a2 v2
  in
  first (expected, got)

let ext_reg_of_id id =
  if id < Reg.num_ext_per_class then Reg.ext Reg.Cint id
  else Reg.ext Reg.Cfp (id - Reg.num_ext_per_class)

let check ?(invariants = true) ?(cores = Config.Core_kind.all) ?inject_commit program
    ~init_mem =
  let divs = ref [] in
  let add core kind detail = divs := { core; kind; detail } :: !divs in
  let ref_out = Emulator.reference ~max_steps ~init_mem program in
  if ref_out.Emulator.stop <> Trace.Halted then begin
    add "reference" "non-terminating"
      (Printf.sprintf "virtual IR did not halt within %d steps" max_steps);
    {
      divergences = List.rev !divs;
      cores = [];
      dynamic_count = ref_out.Emulator.dynamic_count;
    }
  end
  else begin
    let ref_mem = Emulator.memory_image ref_out.Emulator.state in
    let conv = (Transform.conventional program).Extalloc.program in
    let braid = (Transform.run program).Transform.program in
    (* Sequential emulation of each binary on the compiled engine:
       supplies the trace the cores run, the final architectural state the
       reference replay is compared against, and — against [ref_mem] — the
       compiler-correctness check. *)
    let emulate name prog =
      let out = Emulator.run ~max_steps ~trace:true ~init_mem prog in
      if out.Emulator.stop <> Trace.Halted then
        add name "non-terminating"
          (Printf.sprintf "binary did not halt within %d steps" max_steps);
      let mem = Emulator.memory_image out.Emulator.state in
      if out.Emulator.stop = Trace.Halted && mem <> ref_mem then
        add name "compile-memory" (mem_diff ref_mem mem);
      (out, mem)
    in
    let conv_out, conv_mem = emulate "conventional" conv in
    let braid_out, braid_mem = emulate "braid-binary" braid in
    let warm_data = List.map fst init_mem in
    let run_core kind =
      let name = Config.Core_kind.to_string kind in
      let cfg = Config.preset_of_kind kind in
      let out, bin_mem =
        if Config.Core_kind.braid_binary kind then (braid_out, braid_mem)
        else (conv_out, conv_mem)
      in
      let trace =
        match out.Emulator.trace with Some t -> t | None -> assert false
      in
      let probe = Probe.create ~invariants cfg in
      let cycles =
        match Core.result (Core.run ~probe ~warm_data cfg trace) with
        | res -> res.Core.cycles
        | exception Core.Deadlock msg ->
            add name "deadlock" msg;
            0
      in
      let n = Trace.length trace in
      let committed = Probe.committed probe in
      let committed =
        match inject_commit with None -> committed | Some f -> f committed
      in
      if Array.length committed <> n then
        add name "commit-count"
          (Printf.sprintf "committed %d of %d fetched instructions"
             (Array.length committed) n)
      else begin
        (* the global commit FIFO discipline: strict fetch (trace) order *)
        let first_bad = ref (-1) in
        Array.iteri
          (fun i u -> if !first_bad < 0 && u <> i then first_bad := i)
          committed;
        if !first_bad >= 0 then
          add name "commit-order"
            (Printf.sprintf "position %d committed uid %d (expected %d)"
               !first_bad
               committed.(!first_bad)
               !first_bad);
        (* architectural replay of the committed stream *)
        if Array.for_all (fun u -> u >= 0 && u < n) committed then begin
          let st = Emulator.init_state ~init_mem () in
          Array.iter
            (fun u ->
              Emulator.exec_instr st (Trace.static trace u).Trace.instr)
            committed;
          let bin_st = out.Emulator.state in
          let reg_divs = ref 0 in
          for id = 0 to Reg.num_ext_ids - 1 do
            let r = ext_reg_of_id id in
            let a = Emulator.read_ext st r
            and b = Emulator.read_ext bin_st r in
            if a <> b && !reg_divs < 4 then begin
              incr reg_divs;
              add name "regfile"
                (Printf.sprintf "%s: replay %Ld vs sequential %Ld"
                   (Reg.to_string r) a b)
            end
          done;
          let replay_mem = Emulator.memory_image st in
          if replay_mem <> bin_mem then
            add name "memory" (mem_diff bin_mem replay_mem)
        end
      end;
      {
        kind;
        name;
        cycles;
        violations = Probe.violations probe;
        violation_count = Probe.violation_count probe;
      }
    in
    let core_reports = List.map run_core cores in
    {
      divergences = List.rev !divs;
      cores = core_reports;
      dynamic_count = ref_out.Emulator.dynamic_count;
    }
  end

let pp_divergence fmt d =
  Format.fprintf fmt "%s/%s: %s" d.core d.kind d.detail

let render r =
  let buf = Buffer.create 256 in
  List.iter
    (fun d -> Buffer.add_string buf (Format.asprintf "  %a\n" pp_divergence d))
    r.divergences;
  List.iter
    (fun c ->
      if c.violation_count > 0 then begin
        Buffer.add_string buf
          (Printf.sprintf "  %s: %d invariant violation(s)\n" c.name
             c.violation_count);
        List.iteri
          (fun i v ->
            if i < 8 then
              Buffer.add_string buf
                (Format.asprintf "    %a\n" Probe.pp_violation v))
          c.violations
      end)
    r.cores;
  Buffer.contents buf

(* Tests for Program validation and the functional emulator. *)

let r n = Reg.ext Reg.Cint n
let f n = Reg.ext Reg.Cfp n
let i op = Instr.make op

let block id ?fallthrough instrs =
  { Program.id; instrs = Array.of_list instrs; fallthrough }

let straight_line instrs =
  Program.make [ block 0 (instrs @ [ i Op.Halt ]) ] ~entry:0

(* --- Program validation --- *)

let invalid prog_thunk =
  try
    ignore (prog_thunk ());
    false
  with Invalid_argument _ -> true

let test_program_validation () =
  Alcotest.(check bool) "no blocks" true (invalid (fun () -> Program.make [] ~entry:0));
  Alcotest.(check bool) "bad entry" true
    (invalid (fun () -> Program.make [ block 0 [ i Op.Halt ] ] ~entry:3));
  Alcotest.(check bool) "bad branch target" true
    (invalid (fun () ->
         Program.make [ block 0 ~fallthrough:0 [ i (Op.Branch (Op.Eq, r 0, 9)) ] ] ~entry:0));
  Alcotest.(check bool) "transfer must be terminal" true
    (invalid (fun () ->
         Program.make [ block 0 [ i (Op.Jump 0); i Op.Halt ] ] ~entry:0));
  Alcotest.(check bool) "missing fallthrough" true
    (invalid (fun () -> Program.make [ block 0 [ i Op.Nop ] ] ~entry:0));
  Alcotest.(check bool) "dense ids required" true
    (invalid (fun () -> Program.make [ block 1 [ i Op.Halt ] ] ~entry:0))

let test_program_addresses () =
  let p =
    Program.make
      [ block 0 ~fallthrough:1 [ i Op.Nop; i Op.Nop ]; block 1 [ i Op.Halt ] ]
      ~entry:0
  in
  Alcotest.(check int) "static count" 3 (Program.num_static_instrs p);
  Alcotest.(check int) "block 1 base" 2 (Program.block_base p 1);
  Alcotest.(check int) "pc" 8 (Program.pc_of p ~block_id:1 ~offset:0);
  Alcotest.(check int) "pc offset" 4 (Program.pc_of p ~block_id:0 ~offset:1)

let test_max_virt () =
  let p = straight_line [ i (Op.Movi (Reg.virt Reg.Cint 7, 1L)) ] in
  Alcotest.(check int) "max virt" 7 (Program.max_virt_index p);
  let q = straight_line [ i (Op.Movi (r 0, 1L)) ] in
  Alcotest.(check int) "no virt" (-1) (Program.max_virt_index q)

(* --- Emulator: arithmetic and memory --- *)

let i64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* The semantic cases run on both engines: the compiled one behind
   [Emulator.run] and the reference interpreter. *)
type engine = {
  name : string;
  exec :
    ?max_steps:int -> ?init_mem:(int * int64) list -> Program.t -> Emulator.outcome;
}

let engines =
  [
    {
      name = "run";
      exec = (fun ?max_steps ?init_mem p -> Emulator.run ?max_steps ?init_mem p);
    };
    { name = "reference"; exec = Emulator.reference };
  ]

let on_both test () = List.iter test engines

let test_emulator_arith e =
  let p =
    straight_line
      [
        i (Op.Movi (r 1, 6L));
        i (Op.Movi (r 2, 7L));
        i (Op.Ibin (Op.Mul, r 3, r 1, r 2));
        i (Op.Ibini (Op.Add, r 3, r 3, 100));
      ]
  in
  let out = e.exec p in
  Alcotest.(check i64) (e.name ^ ": 6*7+100") 142L (Emulator.read_ext out.Emulator.state (r 3));
  Alcotest.(check bool) (e.name ^ ": halted") true (out.Emulator.stop = Trace.Halted)

let test_emulator_zero_reg e =
  let p =
    straight_line
      [ i (Op.Movi (Reg.zero, 55L)); i (Op.Ibini (Op.Add, r 1, Reg.zero, 3)) ]
  in
  let out = e.exec p in
  Alcotest.(check i64) (e.name ^ ": zero ignores writes") 3L (Emulator.read_ext out.Emulator.state (r 1))

let test_emulator_memory e =
  let p =
    straight_line
      [
        i (Op.Movi (r 1, 0x1000L));
        i (Op.Movi (r 2, 99L));
        i (Op.Store (r 2, r 1, 8, 0));
        i (Op.Load (r 3, r 1, 8, 0));
      ]
  in
  let out = e.exec p in
  Alcotest.(check i64) (e.name ^ ": load sees store") 99L (Emulator.read_ext out.Emulator.state (r 3));
  Alcotest.(check i64) (e.name ^ ": memory word") 99L (Emulator.read_mem out.Emulator.state 0x1008);
  Alcotest.(check int) (e.name ^ ": store count") 1 out.Emulator.store_count

let test_emulator_init_mem e =
  let p = straight_line [ i (Op.Movi (r 1, 0x2000L)); i (Op.Load (r 2, r 1, 0, 0)) ] in
  let out = e.exec ~init_mem:[ (0x2000, 123L) ] p in
  Alcotest.(check i64) (e.name ^ ": init memory visible") 123L (Emulator.read_ext out.Emulator.state (r 2))

let test_emulator_loop e =
  (* sum 1..10 with a backward branch *)
  let body =
    block 1 ~fallthrough:2
      [
        i (Op.Ibin (Op.Add, r 3, r 3, r 1));
        i (Op.Ibini (Op.Add, r 1, r 1, 1));
        i (Op.Ibini (Op.Cmple, r 4, r 1, 10));
        i (Op.Branch (Op.Ne, r 4, 1));
      ]
  in
  let p =
    Program.make
      [ block 0 ~fallthrough:1 [ i (Op.Movi (r 1, 1L)) ]; body; block 2 [ i Op.Halt ] ]
      ~entry:0
  in
  let out = e.exec p in
  Alcotest.(check i64) (e.name ^ ": sum 1..10") 55L (Emulator.read_ext out.Emulator.state (r 3))

let test_emulator_cmov e =
  let p =
    straight_line
      [
        i (Op.Movi (r 1, 5L));
        i (Op.Movi (r 2, 10L));
        i (Op.Movi (r 3, 0L));
        i (Op.Cmov (Op.Ne, r 2, r 1, r 3));
        (* r1 <> 0, so r2 := r3 = 0 *)
        i (Op.Cmov (Op.Eq, r 1, r 2, r 3));
        (* r2 = 0 now... test reg is r2? no: test is second arg *)
      ]
  in
  let out = e.exec p in
  Alcotest.(check i64) (e.name ^ ": cmov taken") 0L (Emulator.read_ext out.Emulator.state (r 2))

let test_emulator_cmov_not_taken e =
  let p =
    straight_line
      [
        i (Op.Movi (r 1, 0L));
        i (Op.Movi (r 2, 10L));
        i (Op.Movi (r 3, 42L));
        i (Op.Cmov (Op.Ne, r 2, r 1, r 3));
        (* r1 = 0: r2 keeps 10 *)
      ]
  in
  let out = e.exec p in
  Alcotest.(check i64) (e.name ^ ": cmov not taken") 10L (Emulator.read_ext out.Emulator.state (r 2))

let test_emulator_fp e =
  let p =
    straight_line
      [
        i (Op.Movi (r 1, 9L));
        i (Op.Funary (Op.Cvt_if, f 1, r 1));
        i (Op.Funary (Op.Fsqrt, f 2, f 1));
        i (Op.Fbin (Op.Fmul, f 3, f 2, f 2));
      ]
  in
  let out = e.exec p in
  let v = Int64.float_of_bits (Emulator.read_ext out.Emulator.state (f 3)) in
  Alcotest.(check (float 1e-9)) (e.name ^ ": sqrt(9)^2") 9.0 v

let test_emulator_fault_continues () =
  let p =
    straight_line
      [
        i (Op.Movi (r 1, 4L));
        i (Op.Funary (Op.Cvt_if, f 1, r 1));
        i (Op.Movi (r 2, 0L));
        i (Op.Funary (Op.Cvt_if, f 2, r 2));
        i (Op.Fbin (Op.Fdiv, f 3, f 1, f 2));
        (* divide by zero *)
        i (Op.Movi (r 5, 77L));
      ]
  in
  let out = Emulator.run p in
  Alcotest.(check bool) "continued to halt" true (out.Emulator.stop = Trace.Halted);
  Alcotest.(check i64) "faulting dest zeroed" 0L (Emulator.read_ext out.Emulator.state (f 3));
  Alcotest.(check i64) "later work ran" 77L (Emulator.read_ext out.Emulator.state (r 5));
  match out.Emulator.trace with
  | Some t ->
      let faults = List.filter (Trace.faulting t) (List.init (Trace.length t) Fun.id) in
      Alcotest.(check int) "one fault event" 1 (List.length faults)
  | None -> Alcotest.fail "trace expected"

let test_emulator_max_steps e =
  let p =
    Program.make [ block 0 [ i (Op.Jump 0) ] ] ~entry:0
  in
  let out = e.exec ~max_steps:50 p in
  Alcotest.(check bool) (e.name ^ ": steps exhausted") true (out.Emulator.stop = Trace.Steps_exhausted);
  Alcotest.(check int) (e.name ^ ": exactly 50") 50 out.Emulator.dynamic_count

let test_emulator_unaligned e =
  let p = straight_line [ i (Op.Movi (r 1, 3L)); i (Op.Load (r 2, r 1, 0, 0)) ] in
  Alcotest.(check bool) (e.name ^ ": unaligned fails") true
    (try
       ignore (e.exec p);
       false
     with Failure _ -> true)

(* --- trace structure --- *)

let test_trace_deps () =
  let p =
    straight_line
      [
        i (Op.Movi (r 1, 1L));
        (* uid 0 *)
        i (Op.Movi (r 2, 2L));
        (* uid 1 *)
        i (Op.Ibin (Op.Add, r 3, r 1, r 2));
        (* uid 2: deps on 0 and 1 *)
        i (Op.Ibin (Op.Add, r 3, r 3, r 1));
        (* uid 3: deps on 2 and 0 *)
      ]
  in
  let out = Emulator.run p in
  let t = Option.get out.Emulator.trace in
  let deps u = Array.to_list (Trace.event t u).Trace.deps |> List.map fst in
  Alcotest.(check (list int)) "add deps" [ 0; 1 ] (deps 2);
  Alcotest.(check (list int)) "chained deps" [ 0; 2 ] (deps 3)

let test_trace_branch_fields () =
  let body =
    block 1 ~fallthrough:2
      [ i (Op.Ibini (Op.Add, r 1, r 1, 1)); i (Op.Ibini (Op.Cmplt, r 2, r 1, 3));
        i (Op.Branch (Op.Ne, r 2, 1)) ]
  in
  let p =
    Program.make
      [ block 0 ~fallthrough:1 [ i (Op.Movi (r 1, 0L)) ]; body; block 2 [ i Op.Halt ] ]
      ~entry:0
  in
  let t = Option.get (Emulator.run p).Emulator.trace in
  let branches =
    List.init (Trace.length t) (Trace.event t)
    |> List.filter (fun e -> e.Trace.is_cond_branch)
  in
  Alcotest.(check int) "three dynamic branches" 3 (List.length branches);
  let takens = List.map (fun e -> e.Trace.taken) branches in
  Alcotest.(check (list bool)) "taken, taken, not-taken" [ true; true; false ] takens

let test_memory_image_and_fingerprint e =
  let store addr v = [ i (Op.Movi (r 1, Int64.of_int addr)); i (Op.Movi (r 2, v)); i (Op.Store (r 2, r 1, 0, 0)) ] in
  let p1 = straight_line (store 0x1000 5L @ store Emulator.spill_base 9L) in
  let out1 = e.exec p1 in
  Alcotest.(check (list (pair int i64))) (e.name ^ ": image excludes spill region")
    [ (0x1000, 5L) ]
    (Emulator.memory_image out1.Emulator.state);
  let p2 = straight_line (store 0x1000 5L) in
  let out2 = e.exec p2 in
  Alcotest.(check i64) (e.name ^ ": fingerprints equal for equal images")
    (Emulator.memory_fingerprint out1.Emulator.state)
    (Emulator.memory_fingerprint out2.Emulator.state);
  let p3 = straight_line (store 0x1000 6L) in
  let out3 = e.exec p3 in
  Alcotest.(check bool) (e.name ^ ": different image, different fingerprint") false
    (Int64.equal
       (Emulator.memory_fingerprint out1.Emulator.state)
       (Emulator.memory_fingerprint out3.Emulator.state))

(* --- the tracer against an independent derivation --- *)

(* Every instruction's dependences, rederived from its [Instr.t] alone:
   a last-writer map keyed by register over [Instr.uses] and [Op.defs]
   (the ext_dup copy included when there is a primary destination), via
   set when the register read is internal, sorted, exact duplicates
   dropped. The zero register neither produces nor consumes. Also checks
   the flag bits the tracer takes from its tables: a jump is taken, a
   non-branch is not, the S bit (or a first instruction inside a braid)
   is a braid start, and only loads and stores carry an address. *)
module Reg_map = Map.Make (Reg)

let check_trace_derivation name t =
  let last = ref Reg_map.empty in
  for u = 0 to Trace.length t - 1 do
    let e = Trace.event t u in
    let ins = e.Trace.instr in
    let live r = not (Reg.is_zero r) in
    let derived =
      List.filter_map
        (fun r ->
          Option.map
            (fun w -> (w, r.Reg.space = Reg.Intern))
            (Reg_map.find_opt r !last))
        (List.filter live (Instr.uses ins))
      |> List.sort_uniq compare
    in
    let expect what want got =
      if want <> got then
        Alcotest.failf "%s: uid %d (%s): %s" name u (Disasm.instr ins) what
    in
    let pp deps =
      String.concat " "
        (List.map (fun (p, via) -> Printf.sprintf "%d%s" p (if via then "i" else "")) deps)
    in
    let got = Array.to_list e.Trace.deps in
    if derived <> got then
      Alcotest.failf "%s: uid %d (%s): dependences [%s], derived [%s]" name u
        (Disasm.instr ins) (pp got) (pp derived);
    expect "taken" (e.Trace.is_jump || (e.Trace.is_cond_branch && e.Trace.taken))
      e.Trace.taken;
    expect "braid start"
      (ins.Instr.annot.Instr.braid_start
      || (u = 0 && ins.Instr.annot.Instr.braid_id >= 0))
      e.Trace.braid_start;
    expect "address" (e.Trace.is_load || e.Trace.is_store) (e.Trace.addr >= 0);
    let defs = Op.defs ins.Instr.op in
    let dup =
      match (ins.Instr.annot.Instr.ext_dup, defs) with
      | Some d, _ :: _ -> [ d ]
      | _ -> []
    in
    List.iter (fun r -> last := Reg_map.add r u !last) (List.filter live (defs @ dup))
  done

let binaries name prog =
  let module C = Braid_core in
  [
    (name ^ "/braid", (C.Transform.run prog).C.Transform.program);
    (name ^ "/conv", (C.Transform.conventional prog).C.Extalloc.program);
  ]

let test_trace_derivation () =
  let traced (name, prog, init_mem) =
    let t = Option.get (Emulator.run ~max_steps:20_000 ~init_mem prog).Emulator.trace in
    check_trace_derivation name t;
    Trace.length t
  in
  let benches =
    List.concat_map
      (fun b ->
        let prog, init_mem =
          Braid_workload.Spec.generate (Braid_workload.Spec.find b) ~seed:1 ~scale:2_000
        in
        List.map (fun (n, p) -> (n, p, init_mem)) (binaries b prog))
      [ "gzip"; "gcc"; "mcf"; "crafty"; "bzip2"; "swim"; "art"; "equake" ]
  in
  let fuzz =
    List.concat_map
      (fun index ->
        let prog, init_mem =
          Braid_check.Gen.build (Braid_check.Gen.generate ~seed:7 ~index)
        in
        let name = Printf.sprintf "fuzz %d" index in
        List.map (fun (n, p) -> (n, p, init_mem)) ((name ^ "/ir", prog) :: binaries name prog))
      (List.init 12 Fun.id)
  in
  let total = List.fold_left (fun n b -> n + traced b) 0 (benches @ fuzz) in
  Alcotest.(check bool) (Printf.sprintf "%d instructions checked" total) true (total >= 50_000)

(* The braid core's release bits, held to the derivation they replace:
   per producer, the highest uid that reads it externally, by one
   forward pass over the entries. A uid has no
   external reader exactly when no entry names it without the via bit,
   and an entry is its producer's last external read exactly when it is
   external and its consumer is that uid. Checked on the bits a stored
   trace marks when it is finished, on those of windows traced from
   mid-run, and on those a stream's pre-pass finds, whose columns must
   also read back the stored trace's events, for both binaries of all 26
   benchmarks, and for hand-built programs whose instructions write
   their value to two external registers (a writer that keeps one
   register when the other is overwritten). *)
let last_ext_readers t =
  let a = Array.make (Trace.length t) (-1) in
  for u = 0 to Trace.length t - 1 do
    for k = Trace.dep_off t u to Trace.dep_off t (u + 1) - 1 do
      if not (Trace.dep_via t k) then a.(Trace.dep_uid t k) <- u
    done
  done;
  a

let check_release_bits name last t u =
  if Trace.no_ext_reader t u <> (last.(u) < 0) then
    Alcotest.failf "%s: uid %d: no_ext_reader %b, last external reader %d" name u
      (Trace.no_ext_reader t u) last.(u);
  for k = Trace.dep_off t u to Trace.dep_off t (u + 1) - 1 do
    let p = Trace.dep_uid t k in
    let want = (not (Trace.dep_via t k)) && last.(p) = u in
    if Trace.dep_last t k <> want then
      Alcotest.failf "%s: uid %d, entry %d (producer %d): dep_last %b, last reader %d"
        name u k p (Trace.dep_last t k) last.(p)
  done

(* The stored trace's bits, then a stream's of the same run through a
   [capacity]-uid window, refilled as each uid is read. *)
let check_both_release_bits ~capacity name ~init_mem binary =
  let stored =
    Option.get (Emulator.run ~max_steps:100_000 ~init_mem binary).Emulator.trace
  in
  let last = last_ext_readers stored in
  let n = Trace.length stored in
  for u = 0 to n - 1 do
    check_release_bits (name ^ " stored") last stored u
  done;
  let s = Emulator.stream ~max_steps:100_000 ~init_mem ~capacity binary in
  Alcotest.(check int) (name ^ ": stream length") n (Trace.length s);
  Alcotest.(check bool) (name ^ ": stream stop") true (Trace.stop s = Trace.stop stored);
  Alcotest.(check (array int)) (name ^ ": stream warm lines") (Trace.warm_lines stored)
    (Trace.warm_lines s);
  for u = 0 to n - 1 do
    if u = Trace.produced s then Trace.refill s ~keep:u;
    if Trace.event s u <> Trace.event stored u || Trace.dep_off s u <> Trace.dep_off stored u
    then Alcotest.failf "%s: uid %d: the stream's event differs" name u;
    check_release_bits (name ^ " streamed") last s u
  done;
  n

(* Windows of a quarter of an [n]-instruction run, traced from a quarter,
   half and three quarters of the way in: kept traces of their own,
   whose uids restart at 0. *)
let mid_run_windows ~init_mem binary n =
  let code = Emulator.Compiled.compile binary in
  List.map
    (fun start ->
      let run = Emulator.Compiled.start ~init_mem code in
      ignore (Emulator.Compiled.advance run ~fuel:start : int);
      ( Printf.sprintf " window at %d" start,
        Emulator.Compiled.trace_window run ~max_steps:(n / 4) ))
    [ n / 4; n / 2; 3 * n / 4 ]

let test_release_bits () =
  let total =
    List.fold_left
      (fun total (pr : Braid_workload.Spec.profile) ->
        let prog, init_mem = Braid_workload.Spec.generate pr ~seed:1 ~scale:2_000 in
        List.fold_left
          (fun total (name, binary) ->
            let n = check_both_release_bits ~capacity:512 name ~init_mem binary in
            List.iter
              (fun (label, w) ->
                let last = last_ext_readers w in
                for u = 0 to Trace.length w - 1 do
                  check_release_bits (name ^ label) last w u
                done)
              (mid_run_windows ~init_mem binary n);
            total + n)
          total
          (binaries pr.Braid_workload.Spec.name prog))
      0 Braid_workload.Spec.all
  in
  Alcotest.(check bool) (Printf.sprintf "%d instructions checked" total) true
    (total >= 100_000);
  (* uid 0 writes r1 and r2; one is overwritten while the other is read
     later, or both die unread *)
  let dup = Instr.with_ext_dup (i (Op.Movi (r 1, 5L))) (r 2) in
  List.iter
    (fun (name, body) ->
      let prog = straight_line (dup :: body) in
      check_trace_derivation name
        (Option.get (Emulator.run ~init_mem:[] prog).Emulator.trace);
      List.iter
        (fun capacity ->
          ignore
            (check_both_release_bits ~capacity
               (Printf.sprintf "%s, window %d" name capacity)
               ~init_mem:[] prog
              : int))
        [ 2; 4; 64 ])
    [
      ( "r1 overwritten, r2 read after",
        [
          i (Op.Ibin (Op.Add, r 3, r 1, r 5));
          i (Op.Movi (r 1, 7L));
          i (Op.Ibin (Op.Add, r 4, r 2, r 5));
          i (Op.Movi (r 2, 1L));
          i (Op.Ibin (Op.Add, r 6, r 1, r 4));
        ] );
      ( "r2 overwritten, r1 read after",
        [
          i (Op.Ibin (Op.Add, r 3, r 2, r 5));
          i (Op.Movi (r 2, 9L));
          i (Op.Ibin (Op.Add, r 4, r 1, r 1));
          i (Op.Movi (r 1, 0L));
        ] );
      ("both die unread", [ i (Op.Movi (r 1, 1L)); i (Op.Movi (r 2, 2L)) ]);
      ("read at the end", [ i (Op.Ibin (Op.Add, r 3, r 2, r 1)) ]);
    ]

(* A trace's first-touch instruction lines, held to a forward fold over
   its uids' static pcs (a stream refilled as the fold reaches its
   frontier): on a stored trace, on windows traced from mid-run, on a
   stream, for both binaries of all 26 benchmarks, and on a hand-built
   trace that revisits its lines out of order. *)
let first_touch_lines t =
  let seen = Hashtbl.create 64 and lines = ref [] in
  for u = 0 to Trace.length t - 1 do
    if u = Trace.produced t then Trace.refill t ~keep:u;
    let line = (Trace.static t u).Trace.pc lsr 6 in
    if not (Hashtbl.mem seen line) then begin
      Hashtbl.add seen line ();
      lines := (line lsl 6) :: !lines
    end
  done;
  Array.of_list (List.rev !lines)

let check_warm_lines name t =
  Alcotest.(check (array int)) (name ^ ": warm lines") (first_touch_lines t)
    (Trace.warm_lines t)

let test_warm_lines () =
  List.iter
    (fun (pr : Braid_workload.Spec.profile) ->
      let prog, init_mem = Braid_workload.Spec.generate pr ~seed:1 ~scale:2_000 in
      List.iter
        (fun (name, binary) ->
          let stored =
            Option.get (Emulator.run ~max_steps:100_000 ~init_mem binary).Emulator.trace
          in
          List.iter
            (fun (label, t) -> check_warm_lines (name ^ label) t)
            ((" stored", stored)
            :: (" stream", Emulator.stream ~max_steps:100_000 ~init_mem ~capacity:512 binary)
            :: mid_run_windows ~init_mem binary (Trace.length stored)))
        (binaries pr.Braid_workload.Spec.name prog))
    Braid_workload.Spec.all;
  let nops =
    Option.get (Emulator.run (straight_line (List.init 6 (fun _ -> i Op.Nop)))).Emulator.trace
  in
  let pcs = [| 0x100; 0x40; 0x104; 0x0; 0x48; 0x200; 0x3c |] in
  let hand =
    Trace.of_events (Trace.program nops)
      (Array.mapi (fun u pc -> { (Trace.event nops u) with Trace.pc }) pcs)
  in
  Alcotest.(check (array int)) "hand-built: first touches" [| 0x100; 0x40; 0x0; 0x200 |]
    (first_touch_lines hand);
  check_warm_lines "hand-built" hand

let suite =
  ( "program-emulator",
    [
      Alcotest.test_case "program validation" `Quick test_program_validation;
      Alcotest.test_case "program addresses" `Quick test_program_addresses;
      Alcotest.test_case "max virt index" `Quick test_max_virt;
      Alcotest.test_case "arithmetic" `Quick (on_both test_emulator_arith);
      Alcotest.test_case "zero register" `Quick (on_both test_emulator_zero_reg);
      Alcotest.test_case "memory" `Quick (on_both test_emulator_memory);
      Alcotest.test_case "init memory" `Quick (on_both test_emulator_init_mem);
      Alcotest.test_case "loop" `Quick (on_both test_emulator_loop);
      Alcotest.test_case "cmov taken" `Quick (on_both test_emulator_cmov);
      Alcotest.test_case "cmov not taken" `Quick (on_both test_emulator_cmov_not_taken);
      Alcotest.test_case "floating point" `Quick (on_both test_emulator_fp);
      Alcotest.test_case "fault continues" `Quick test_emulator_fault_continues;
      Alcotest.test_case "max steps" `Quick (on_both test_emulator_max_steps);
      Alcotest.test_case "unaligned access" `Quick (on_both test_emulator_unaligned);
      Alcotest.test_case "trace deps" `Quick test_trace_deps;
      Alcotest.test_case "trace branch fields" `Quick test_trace_branch_fields;
      Alcotest.test_case "trace derivation" `Quick test_trace_derivation;
      Alcotest.test_case "release bits" `Quick test_release_bits;
      Alcotest.test_case "warm lines" `Quick test_warm_lines;
      Alcotest.test_case "memory image & fingerprint" `Quick (on_both test_memory_image_and_fingerprint);
    ] )

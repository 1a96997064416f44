(* The RV32IM frontend: decoder goldens and round-trips, loader failure
   paths (mirroring Wire's rejection style), the reference emulator's
   HTIF conventions, the generator self-check (decode inverts encode;
   the translator is total), origin provenance through the compiler, the
   committed-hex sync check, and the frontend differential oracle over
   every committed fixture — reference emulator vs translated IR vs all
   three timing cores. *)

module Rv = Braid_rv
module I = Rv.Insn
module Img = Rv.Image
module C = Braid_core
module Ck = Braid_check

let check = Alcotest.(check bool)

(* --- decoder goldens --- *)

(* Hand-assembled words (cross-checked against a stock RV32 assembler). *)
let decoder_golden =
  [
    (0x00100093, I.Alui (I.Add, 1, 0, 1)); (* addi x1, x0, 1 *)
    (0x003100b3, I.Alu (I.Add, 1, 2, 3)); (* add x1, x2, x3 *)
    (0x40310133, I.Alu (I.Sub, 2, 2, 3)); (* sub x2, x2, x3 *)
    (0x123452b7, I.Lui (5, 0x12345)); (* lui x5, 0x12345 *)
    (0x12345297, I.Auipc (5, 0x12345)); (* auipc x5, 0x12345 *)
    (0x008000ef, I.Jal (1, 8)); (* jal x1, +8 *)
    (0x000300e7, I.Jalr (1, 6, 0)); (* jalr x1, x6, 0 *)
    (0x00208463, I.Branch (I.Beq, 1, 2, 8)); (* beq x1, x2, +8 *)
    (0xfe209ee3, I.Branch (I.Bne, 1, 2, -4)); (* bne x1, x2, -4 *)
    (0x0043a303, I.Load (I.W, 6, 7, 4)); (* lw x6, 4(x7) *)
    (0x0003c303, I.Load (I.Bu, 6, 7, 0)); (* lbu x6, 0(x7) *)
    (0x0063a423, I.Store (I.W, 6, 7, 8)); (* sw x6, 8(x7) *)
    (0x02730533, I.Muldiv (I.Mul, 10, 6, 7)); (* mul x10, x6, x7 *)
    (0x0273c533, I.Muldiv (I.Div, 10, 7, 7)); (* div x10, x7, x7 *)
    (0x00000073, I.Ecall);
    (0x00100073, I.Ebreak);
  ]

let test_decoder_golden () =
  List.iter
    (fun (word, insn) ->
      (match I.decode word with
      | Ok got ->
          check (Printf.sprintf "decode 0x%08x = %s" word (I.to_string insn))
            true (got = insn)
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "decode 0x%08x: %s" word (I.error_to_string e)));
      check
        (Printf.sprintf "encode %s = 0x%08x" (I.to_string insn) word)
        true
        (I.encode insn = word))
    decoder_golden

let test_decoder_rejections () =
  (match I.decode 0x0001 with
  | Error (I.Compressed _) -> ()
  | _ -> Alcotest.fail "RVC halfword not rejected as Compressed");
  (match I.decode 0x00001073 with
  (* csrrw x0, cycle, x0: SYSTEM beyond ecall/ebreak *)
  | Error (I.Illegal _) -> ()
  | _ -> Alcotest.fail "CSR access not rejected as Illegal");
  match I.decode 0xffffffff with
  | Error (I.Illegal _) -> ()
  | _ -> Alcotest.fail "all-ones word not rejected"

(* --- generator self-check: satellite for lib/check/gen.ml --- *)

let test_rv_selfcheck () =
  match Ck.Gen.rv_selfcheck ~seed:11 ~count:400 with
  | [] -> ()
  | violations ->
      Alcotest.fail
        (Printf.sprintf "%d violation(s), first: %s" (List.length violations)
           (List.hd violations))

(* --- loader failure paths --- *)

let expect_error label result pred =
  match result with
  | Ok (_ : Img.t) -> Alcotest.fail (label ^ ": accepted")
  | Error e ->
      check
        (label ^ ": " ^ Img.error_to_string e)
        true (pred e)

let test_loader_failures () =
  expect_error "empty flat image" (Img.of_flat "")
    (function Img.Truncated _ -> true | _ -> false);
  expect_error "oversize image"
    (Img.of_flat (String.make (Img.max_bytes + 4) '\x00'))
    (function Img.Oversized _ -> true | _ -> false);
  expect_error "misaligned entry"
    (Img.of_flat ~entry:2 "\x73\x00\x00\x00\x73\x00\x00\x00")
    (function Img.Misaligned { what = "entry pc"; _ } -> true | _ -> false);
  expect_error "entry outside image"
    (Img.of_flat ~entry:64 "\x73\x00\x00\x00")
    (function Img.Bad_entry _ -> true | _ -> false);
  expect_error "misaligned base"
    (Img.of_flat ~base:6 "\x73\x00\x00\x00")
    (function Img.Misaligned { what = "base"; _ } -> true | _ -> false);
  expect_error "bad ELF magic"
    (Img.of_elf ("\x7fBAD" ^ String.make 60 '\x00'))
    (function Img.Bad_magic _ -> true | _ -> false);
  expect_error "truncated ELF header"
    (Img.of_elf "\x7f\x45\x4c\x46\x01\x01")
    (function Img.Truncated _ -> true | _ -> false);
  expect_error "hex: bad magic" (Img.of_hex "not-a-magic\n00000073\n")
    (function Img.Bad_magic _ -> true | _ -> false);
  expect_error "hex: malformed word"
    (Img.of_hex "braid-rv/1 x\n0000zz73\n")
    (function Img.Malformed _ -> true | _ -> false)

let test_hex_roundtrip () =
  List.iter
    (fun name ->
      let img = Option.get (Rv.Fixtures.image name) in
      match Img.of_hex (Img.to_hex img) with
      | Ok img' -> check (name ^ " hex round-trip") true (img = img')
      | Error e -> Alcotest.fail (name ^ ": " ^ Img.error_to_string e))
    Rv.Fixtures.names

(* --- committed hex stays in sync with the fixture sources --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_hex_path name =
  let candidates =
    [
      Filename.concat "../examples/rv" (name ^ ".hex");
      Filename.concat "examples/rv" (name ^ ".hex");
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
      Alcotest.fail
        (Printf.sprintf "examples/rv/%s.hex not found (cwd %s)" name
           (Sys.getcwd ()))

let test_committed_hex_in_sync () =
  List.iter
    (fun name ->
      let img = Option.get (Rv.Fixtures.image name) in
      let committed = read_file (fixture_hex_path name) in
      check
        (Printf.sprintf
           "examples/rv/%s.hex matches the assembled fixture (regenerate \
            with `braidsim rv fixture:%s --hex-out examples/rv/%s.hex`)"
           name name name)
        true
        (committed = Img.to_hex img))
    Rv.Fixtures.names

(* --- reference emulator conventions --- *)

let test_emu_htif () =
  let hello = Option.get (Rv.Fixtures.image "hello") in
  let out = Rv.Emu.run hello in
  check "hello exits 0" true (out.Rv.Emu.stop = Rv.Emu.Exited 0);
  Alcotest.(check string) "putchar stream" "hello, braids!" out.Rv.Emu.output;
  let fib = Option.get (Rv.Fixtures.image "fib") in
  let out = Rv.Emu.run fib in
  check "fib exits with fib(20)" true (out.Rv.Emu.stop = Rv.Emu.Exited 6765)

let test_emu_fuel_and_fault () =
  (* jal x0, 0: a tight self-loop never exits *)
  let loop = Result.get_ok (Img.of_flat "\x6f\x00\x00\x00") in
  let out = Rv.Emu.run ~max_steps:100 loop in
  check "self-loop runs out of fuel" true (out.Rv.Emu.stop = Rv.Emu.Out_of_fuel);
  check "fuel accounting" true (out.Rv.Emu.steps = 100);
  (* lw x1, 1(x0): misaligned load faults *)
  let mis = Result.get_ok (Img.of_flat "\x83\x20\x10\x00") in
  let out = Rv.Emu.run mis in
  match out.Rv.Emu.stop with
  | Rv.Emu.Fault _ -> ()
  | s -> Alcotest.fail ("expected fault, got " ^ Rv.Emu.stop_to_string s)

(* --- translator: origin provenance, typed rejection --- *)

let test_origin_annotations () =
  let img = Option.get (Rv.Fixtures.image "fib") in
  let t = Result.get_ok (Rv.Translate.run img) in
  let with_origin = ref 0 and total = ref 0 in
  Program.iter_instrs
    (fun _ _ ins ->
      incr total;
      if ins.Instr.annot.Instr.origin <> None then incr with_origin)
    t.Rv.Translate.program;
  check "most translated instructions carry an origin" true
    (!with_origin * 2 > !total);
  (* the disassembly prints it as a comment *)
  let printed = Disasm.program t.Rv.Translate.program in
  check "origin rendered as ;<pc mnemonic>" true
    (Astring_contains.contains printed ";<0000 ");
  (* and the braid compiler preserves it through rewriting *)
  let braided = (C.Transform.run t.Rv.Translate.program).C.Transform.program in
  let survived = ref false in
  Program.iter_instrs
    (fun _ _ ins ->
      if ins.Instr.annot.Instr.origin <> None then survived := true)
    braided;
  check "origin survives the braid pass" true !survived

let test_translate_rejects_data_pc () =
  (* entry points at a data word: typed decode error, no exception *)
  let img = Result.get_ok (Img.of_flat "\x09\x00\x00\x00") in
  match Rv.Translate.run img with
  | Error (Rv.Translate.Decode _) -> ()
  | Error e -> Alcotest.fail (Rv.Translate.error_to_string e)
  | Ok _ -> Alcotest.fail "data word translated"

let test_translate_rejects_bad_target () =
  (* beq x0, x0, +64 jumps outside a two-word image *)
  let beq = I.encode (I.Branch (I.Beq, 0, 0, 64)) in
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int beq);
  Bytes.set_int32_le b 4 (Int32.of_int (I.encode I.Ecall));
  let img = Result.get_ok (Img.of_flat (Bytes.to_string b)) in
  match Rv.Translate.run img with
  | Error (Rv.Translate.Bad_target _) -> ()
  | Error e -> Alcotest.fail (Rv.Translate.error_to_string e)
  | Ok _ -> Alcotest.fail "out-of-image branch translated"

(* --- the frontend differential oracle over every committed fixture --- *)

(* (name, exit code, putchar output) — the architectural contract of each
   committed fixture; the oracle then enforces that the translated IR and
   all three cores reproduce the same final state. *)
let fixture_golden =
  [
    ("fib", 6765, "");
    ("memcpy", 5330, "");
    ("sieve", 25, "");
    ("dot", 0, "");
    ("qsort", 12505, "");
    ("crc32", 3844391041, "");
    ("hello", 0, "hello, braids!");
    ("divmix", 1, "");
  ]

(* nbody is the long-run fixture: ~1.5M dynamic rv instructions, far past
   the default step budget. Golden architectural numbers pin it.
   Deliberately not in [fixture_golden]: the full differential oracle
   would simulate every core on a million-instruction trace. *)
let test_nbody_golden () =
  let img = Option.get (Rv.Fixtures.image "nbody") in
  let max_steps = 2_000_000 in
  let r = Rv.Emu.run ~max_steps img in
  check "nbody exit code" true (r.Rv.Emu.stop = Rv.Emu.Exited 4289640473);
  Alcotest.(check int) "nbody dynamic instructions" 1_462_233 r.Rv.Emu.steps;
  Alcotest.(check string) "nbody output" "" r.Rv.Emu.output

let test_fixture_oracle () =
  List.iter
    (fun (name, exit_code, output) ->
      let img = Option.get (Rv.Fixtures.image name) in
      match Ck.Rv_oracle.check img with
      | Error e -> Alcotest.fail (name ^ ": " ^ Rv.Translate.error_to_string e)
      | Ok rep ->
          if not (Ck.Rv_oracle.ok rep) then
            Alcotest.fail (Ck.Rv_oracle.render rep);
          check
            (Printf.sprintf "%s exit code %d" name exit_code)
            true
            (rep.Ck.Rv_oracle.exit_code = Some exit_code);
          Alcotest.(check string) (name ^ " output") output
            rep.Ck.Rv_oracle.output)
    fixture_golden

let suite =
  ( "rv",
    [
      Alcotest.test_case "decoder golden words" `Quick test_decoder_golden;
      Alcotest.test_case "decoder rejections" `Quick test_decoder_rejections;
      Alcotest.test_case "gen self-check (decode/encode, translator total)"
        `Quick test_rv_selfcheck;
      Alcotest.test_case "loader failure paths" `Quick test_loader_failures;
      Alcotest.test_case "hex round-trip" `Quick test_hex_roundtrip;
      Alcotest.test_case "committed hex in sync" `Quick
        test_committed_hex_in_sync;
      Alcotest.test_case "emulator HTIF exit and putchar" `Quick test_emu_htif;
      Alcotest.test_case "emulator fuel and faults" `Quick
        test_emu_fuel_and_fault;
      Alcotest.test_case "origin provenance end to end" `Quick
        test_origin_annotations;
      Alcotest.test_case "translator rejects data pc" `Quick
        test_translate_rejects_data_pc;
      Alcotest.test_case "translator rejects escaping branch" `Quick
        test_translate_rejects_bad_target;
      Alcotest.test_case "nbody golden run" `Slow
        test_nbody_golden;
      Alcotest.test_case "differential oracle on all fixtures" `Slow
        test_fixture_oracle;
    ] )

module Build = Braid_workload.Build
module Kernels = Braid_workload.Kernels

type kernel =
  | Streaming
  | Hash_mix
  | Branchy
  | Bitscan
  | Reduction
  | Cmov_select

type kind =
  | Kernel of kernel
  | Alias_pair
  | Branch_dense
  | Single_braids
  | Reg_pressure

type fragment = { kind : kind; fseed : int }
type case = { seed : int; index : int; fragments : fragment list }

let kinds =
  [|
    Kernel Streaming;
    Kernel Hash_mix;
    Kernel Branchy;
    Kernel Bitscan;
    Kernel Reduction;
    Kernel Cmov_select;
    Alias_pair;
    Branch_dense;
    Single_braids;
    Reg_pressure;
  |]

let generate ~seed ~index =
  let rng = Prng.of_string (Printf.sprintf "braid-fuzz-%d-%d" seed index) in
  let n = Prng.int_in rng 2 5 in
  let fragments =
    List.init n (fun _ ->
        { kind = Prng.pick rng kinds; fseed = Prng.int rng 0x3FFF_FFFF })
  in
  { seed; index; fragments }

let with_fragments case fragments = { case with fragments }

(* ------------------------------------------------------------------ *)
(* Adversarial fragments                                               *)
(* ------------------------------------------------------------------ *)

(* Store/load pairs through two pointers into one array, the second
   pointer computed at runtime and everything tagged [region_unknown]:
   the compiler's alias oracle cannot disambiguate, so the timing cores
   must order them through the in-flight store check. *)
let alias_pair (c : Kernels.ctx) =
  let b = c.b in
  let words = 8 in
  let base, _, _ =
    Build.alloc_array b ~words ~init:(fun i ->
        Int64.of_int (((i * 37) + Prng.int c.rng 64) land 0xff))
  in
  let base2 = Build.int_reg b in
  Build.emit b
    (Op.Ibini (Op.Add, base2, base, 8 * Prng.int_in c.rng 0 (words - 1)));
  for k = 1 to Prng.int_in c.rng 3 6 do
    let o1 = 8 * Prng.int_in c.rng 0 (words - 1) in
    let o2 = 8 * Prng.int_in c.rng 0 3 in
    let v = Build.int_reg b in
    Build.emit b (Op.Load (v, base, o1, Op.region_unknown));
    let v2 = Build.int_reg b in
    Build.emit b (Op.Ibini (Op.Xor, v2, v, (k * 29) land 0x7f));
    (* may alias the next iteration's load through [base] *)
    Build.emit b (Op.Store (v2, base2, o2, Op.region_unknown));
    let v3 = Build.int_reg b in
    (* may read the store just made (forwarding) or an older value *)
    Build.emit b (Op.Load (v3, base2, 8 * Prng.int_in c.rng 0 3, Op.region_unknown));
    Build.emit b (Op.Store (v3, base, 8 * ((k * 3) mod words), Op.region_unknown))
  done

let conds = [| Op.Eq; Op.Ne; Op.Lt; Op.Ge; Op.Le; Op.Gt |]

(* Stacked diamonds keyed on loaded data: branch-dense code with short,
   heavily control-separated braids. *)
let branch_dense (c : Kernels.ctx) =
  let b = c.b in
  let words = Prng.int_in c.rng 4 8 in
  let data, _, _ =
    Build.alloc_array b ~words ~init:(fun i ->
        Int64.of_int (Prng.int_in c.rng (-4) 9 + i - (words / 2)))
  in
  let out, _, _ = Build.alloc_array b ~words ~init:(fun _ -> 0L) in
  let c1 = Prng.pick c.rng conds and c2 = Prng.pick c.rng conds in
  Build.counted_loop b ~count:words (fun b i ->
      let off = Build.int_reg b in
      Build.emit b (Op.Ibini (Op.Shl, off, i, 3));
      let p = Build.int_reg b in
      Build.emit b (Op.Ibin (Op.Add, p, data, off));
      let x = Build.int_reg b in
      Build.emit b (Op.Load (x, p, 0, Op.region_unknown));
      let y = Build.const b Reg.Cint 0L in
      Build.if_diamond b c1 x
        ~then_:(fun b -> Build.emit b (Op.Ibini (Op.Add, y, x, 1)))
        ~else_:(fun b -> Build.emit b (Op.Ibini (Op.Sub, y, x, 1)));
      Build.if_diamond b c2 y
        ~then_:(fun b -> Build.emit b (Op.Ibini (Op.Xor, y, y, 3)))
        ~else_:(fun b -> Build.emit b (Op.Ibini (Op.And, y, y, 7)));
      let q = Build.int_reg b in
      Build.emit b (Op.Ibin (Op.Add, q, out, off));
      Build.emit b (Op.Store (y, q, 0, Op.region_unknown)))

(* Values computed in one block, stored in the next: each store has no
   in-block producer or consumer, so braid formation makes it a
   single-instruction braid (one S bit, no internal registers). *)
let single_braids (c : Kernels.ctx) =
  let b = c.b in
  let n = Prng.int_in c.rng 4 8 in
  let out, _, _ = Build.alloc_array b ~words:n ~init:(fun _ -> 0L) in
  let vals =
    Array.init n (fun i ->
        Build.const b Reg.Cint (Int64.of_int ((i * 257) + Prng.int c.rng 1024)))
  in
  ignore (Build.enter_block b);
  Array.iteri
    (fun i v -> Build.emit b (Op.Store (v, out, 8 * i, Op.region_unknown)))
    vals

(* More simultaneously live values than the 8-entry internal file in one
   block: forces working-set splits, and at dispatch keeps the external
   free list under pressure. *)
let reg_pressure (c : Kernels.ctx) =
  let b = c.b in
  let n = Prng.int_in c.rng 10 14 in
  let out, _, _ = Build.alloc_array b ~words:1 ~init:(fun _ -> 0L) in
  ignore (Build.enter_block b);
  let vs =
    Array.init n (fun i ->
        let v = Build.int_reg b in
        Build.emit b (Op.Movi (v, Int64.of_int ((i * 1103) + Prng.int c.rng 97)));
        let w = Build.int_reg b in
        Build.emit b (Op.Ibini (Op.Mul, w, v, (2 * i) + 1));
        w)
  in
  let acc = Build.const b Reg.Cint 0L in
  Array.iter (fun w -> Build.emit b (Op.Ibin (Op.Add, acc, acc, w))) vs;
  Build.emit b (Op.Store (acc, out, 0, Op.region_unknown))

let emit_fragment b { kind; fseed } =
  let c = { Kernels.b; rng = Prng.create (Int64.of_int fseed) } in
  let len = Prng.int_in c.rng 4 10 in
  match kind with
  | Kernel Streaming -> Kernels.streaming c ~len ~passes:2
  | Kernel Hash_mix -> Kernels.hash_mix c ~len ~passes:2
  | Kernel Branchy -> Kernels.branchy c ~len ~passes:2 ~bias:0.5
  | Kernel Bitscan -> Kernels.bitscan c ~len ~passes:1
  | Kernel Reduction -> Kernels.reduction c ~len ~passes:2
  | Kernel Cmov_select -> Kernels.cmov_select c ~len ~passes:2
  | Alias_pair -> alias_pair c
  | Branch_dense -> branch_dense c
  | Single_braids -> single_braids c
  | Reg_pressure -> reg_pressure c

let build case =
  let b = Build.create () in
  List.iter (emit_fragment b) case.fragments;
  Build.finish b

let kind_name = function
  | Kernel Streaming -> "kernel:streaming"
  | Kernel Hash_mix -> "kernel:hash-mix"
  | Kernel Branchy -> "kernel:branchy"
  | Kernel Bitscan -> "kernel:bitscan"
  | Kernel Reduction -> "kernel:reduction"
  | Kernel Cmov_select -> "kernel:cmov-select"
  | Alias_pair -> "alias-pair"
  | Branch_dense -> "branch-dense"
  | Single_braids -> "single-braids"
  | Reg_pressure -> "reg-pressure"

let describe case =
  Printf.sprintf "seed=%d index=%d [%s]" case.seed case.index
    (String.concat " " (List.map (fun f -> kind_name f.kind) case.fragments))

(* --- RV mode --------------------------------------------------------- *)
(* Random legal RV32IM words for the frontend self-check: decode must
   invert encode exactly, and the translator must lower or reject every
   word with a typed error — never raise. *)

module Rv = Braid_rv

let rv_insn rng : Rv.Insn.t =
  let open Rv.Insn in
  let reg () = Prng.int rng 32 in
  let imm12 () = Prng.int_in rng (-2048) 2047 in
  let alus = [| Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And |] in
  let alui_ops = [| Add; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And |] in
  let muldivs = [| Mul; Mulh; Mulhsu; Mulhu; Div; Divu; Rem; Remu |] in
  let bconds = [| Beq; Bne; Blt; Bge; Bltu; Bgeu |] in
  let load_w = [| B; H; W; Bu; Hu |] in
  let store_w = [| B; H; W |] in
  match Prng.int rng 13 with
  | 0 -> Lui (reg (), Prng.int rng (1 lsl 20))
  | 1 -> Auipc (reg (), Prng.int rng (1 lsl 20))
  | 2 -> Jal (reg (), 2 * Prng.int_in rng (-(1 lsl 19)) ((1 lsl 19) - 1))
  | 3 -> Jalr (reg (), reg (), imm12 ())
  | 4 ->
      Branch (Prng.pick rng bconds, reg (), reg (), 2 * Prng.int_in rng (-2048) 2047)
  | 5 -> Load (Prng.pick rng load_w, reg (), reg (), imm12 ())
  | 6 -> Store (Prng.pick rng store_w, reg (), reg (), imm12 ())
  | 7 ->
      let op = Prng.pick rng alui_ops in
      let imm = match op with Sll | Srl | Sra -> Prng.int rng 32 | _ -> imm12 () in
      Alui (op, reg (), reg (), imm)
  | 8 -> Alu (Prng.pick rng alus, reg (), reg (), reg ())
  | 9 -> Muldiv (Prng.pick rng muldivs, reg (), reg (), reg ())
  | 10 -> Fence
  | 11 -> Ecall
  | _ -> Ebreak

let rv_selfcheck ~seed ~count =
  let violations = ref [] in
  let add s = violations := s :: !violations in
  let ecall = Rv.Insn.encode Rv.Insn.Ecall in
  let word_bytes w =
    let b = Bytes.create 8 in
    Bytes.set_int32_le b 0 (Int32.of_int w);
    Bytes.set_int32_le b 4 (Int32.of_int ecall);
    Bytes.to_string b
  in
  let check_translate i tag w =
    (* A two-word image: the word under test, then an ecall so a lowered
       fall-through has somewhere clean to halt. *)
    match Rv.Image.of_flat ~name:"gen" (word_bytes w) with
    | Error _ -> () (* typed rejection is acceptable *)
    | Ok img -> (
        match Rv.Translate.run img with
        | Ok _ | Error _ -> ()
        | exception exn ->
            add
              (Printf.sprintf "case %d: translate raised on %s word 0x%08x: %s" i
                 tag w (Printexc.to_string exn)))
  in
  for i = 0 to count - 1 do
    let rng = Prng.of_string (Printf.sprintf "braid-rv-gen-%d-%d" seed i) in
    let insn = rv_insn rng in
    let w = Rv.Insn.encode insn in
    (match Rv.Insn.decode w with
    | Ok insn' ->
        if insn' <> insn then
          add
            (Printf.sprintf "case %d: decode(encode %s) = %s" i
               (Rv.Insn.to_string insn) (Rv.Insn.to_string insn'))
        else if Rv.Insn.encode insn' <> w then
          add
            (Printf.sprintf "case %d: re-encode of %s is 0x%08x, want 0x%08x" i
               (Rv.Insn.to_string insn')
               (Rv.Insn.encode insn')
               w)
    | Error e ->
        add
          (Printf.sprintf "case %d: legal word 0x%08x (%s) rejected: %s" i w
             (Rv.Insn.to_string insn) (Rv.Insn.error_to_string e))
    | exception exn ->
        add (Printf.sprintf "case %d: decode raised: %s" i (Printexc.to_string exn)));
    check_translate i "legal" w;
    let rw = Prng.int rng 0x10000 lor (Prng.int rng 0x10000 lsl 16) in
    (match Rv.Insn.decode rw with
    | Ok _ | Error _ -> ()
    | exception exn ->
        add
          (Printf.sprintf "case %d: decode raised on random word 0x%08x: %s" i rw
             (Printexc.to_string exn)));
    check_translate i "random" rw
  done;
  List.rev !violations

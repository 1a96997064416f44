type ibin =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Andnot
  | Shl | Shr
  | Cmpeq | Cmplt | Cmple

type fbin = Fadd | Fsub | Fmul | Fdiv | Fcmplt

type funary = Fneg | Fsqrt | Cvt_if

type cond = Eq | Ne | Lt | Ge | Le | Gt

type label = int

type t =
  | Nop
  | Ibin of ibin * Reg.t * Reg.t * Reg.t
  | Ibini of ibin * Reg.t * Reg.t * int
  | Movi of Reg.t * int64
  | Fbin of fbin * Reg.t * Reg.t * Reg.t
  | Funary of funary * Reg.t * Reg.t
  | Cmov of cond * Reg.t * Reg.t * Reg.t
  | Load of Reg.t * Reg.t * int * int
  | Store of Reg.t * Reg.t * int * int
  | Branch of cond * Reg.t * label
  | Jump of label
  | Halt

let region_unknown = -1

let defs = function
  | Nop | Store _ | Branch _ | Jump _ | Halt -> []
  | Ibin (_, d, _, _) | Ibini (_, d, _, _) | Movi (d, _)
  | Fbin (_, d, _, _) | Funary (_, d, _) | Cmov (_, d, _, _)
  | Load (d, _, _, _) -> [ d ]

let uses = function
  | Nop | Movi _ | Jump _ | Halt -> []
  | Ibin (_, _, a, b) | Fbin (_, _, a, b) -> [ a; b ]
  | Ibini (_, _, a, _) | Funary (_, _, a) -> [ a ]
  | Cmov (_, d, test, v) -> [ test; v; d ]
  | Load (_, base, _, _) -> [ base ]
  | Store (src, base, _, _) -> [ src; base ]
  | Branch (_, r, _) -> [ r ]

let map_regs f = function
  | Nop -> Nop
  | Ibin (o, d, a, b) -> Ibin (o, f d, f a, f b)
  | Ibini (o, d, a, i) -> Ibini (o, f d, f a, i)
  | Movi (d, v) -> Movi (f d, v)
  | Fbin (o, d, a, b) -> Fbin (o, f d, f a, f b)
  | Funary (o, d, a) -> Funary (o, f d, f a)
  | Cmov (c, d, t, v) -> Cmov (c, f d, f t, f v)
  | Load (d, b, off, rg) -> Load (f d, f b, off, rg)
  | Store (s, b, off, rg) -> Store (f s, f b, off, rg)
  | Branch (c, r, l) -> Branch (c, f r, l)
  | Jump l -> Jump l
  | Halt -> Halt

let is_branch = function Branch _ | Jump _ -> true | _ -> false
let is_load = function Load _ -> true | _ -> false
let is_store = function Store _ -> true | _ -> false
let is_mem op = is_load op || is_store op
let is_fp = function Fbin _ | Funary _ -> true | _ -> false

let latency = function
  | Nop | Movi _ | Jump _ | Halt -> 1
  | Ibin (Mul, _, _, _) | Ibini (Mul, _, _, _) -> 3
  | Ibin ((Div | Rem), _, _, _) | Ibini ((Div | Rem), _, _, _) -> 12
  | Ibin _ | Ibini _ | Cmov _ | Branch _ -> 1
  | Fbin (Fdiv, _, _, _) -> 12
  | Fbin _ -> 4
  | Funary (Fsqrt, _, _) -> 16
  | Funary _ -> 2
  | Load _ -> 1 (* address generation; cache time added by the memory model *)
  | Store _ -> 1

let bool64 b = if b then 1L else 0L

let eval_ibin o a b =
  match o with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if Int64.equal b 0L then -1L else Int64.div a b
  | Rem -> if Int64.equal b 0L then a else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Andnot -> Int64.logand a (Int64.lognot b)
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Cmpeq -> bool64 (Int64.equal a b)
  | Cmplt -> bool64 (Int64.compare a b < 0)
  | Cmple -> bool64 (Int64.compare a b <= 0)

let eval_fbin o a b =
  match o with
  | Fadd -> Some (a +. b)
  | Fsub -> Some (a -. b)
  | Fmul -> Some (a *. b)
  | Fdiv -> if b = 0.0 then None else Some (a /. b)
  | Fcmplt -> Some (if a < b then 1.0 else 0.0)

let eval_funary o bits =
  match o with
  | Fneg -> Int64.bits_of_float (-.Int64.float_of_bits bits)
  | Fsqrt -> Int64.bits_of_float (sqrt (Float.abs (Int64.float_of_bits bits)))
  | Cvt_if -> Int64.bits_of_float (Int64.to_float bits)

let cond_holds c sign =
  match c with
  | Eq -> sign = 0
  | Ne -> sign <> 0
  | Lt -> sign < 0
  | Ge -> sign >= 0
  | Le -> sign <= 0
  | Gt -> sign > 0

let eval_cond c v = cond_holds c (Int64.compare v 0L)

let ibin_name = function
  | Add -> "addq" | Sub -> "subq" | Mul -> "mulq"
  | Div -> "divq" | Rem -> "remq"
  | And -> "and" | Or -> "bis" | Xor -> "xor" | Andnot -> "andnot"
  | Shl -> "sll" | Shr -> "srl"
  | Cmpeq -> "cmpeq" | Cmplt -> "cmplt" | Cmple -> "cmple"

let fbin_name = function
  | Fadd -> "addt" | Fsub -> "subt" | Fmul -> "mult"
  | Fdiv -> "divt" | Fcmplt -> "cmptlt"

let funary_name = function Fneg -> "fneg" | Fsqrt -> "sqrtt" | Cvt_if -> "cvtqt"

let cond_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Ge -> "ge" | Le -> "le" | Gt -> "gt"

let mnemonic = function
  | Nop -> "nop"
  | Ibin (o, _, _, _) -> ibin_name o
  | Ibini (o, _, _, _) -> ibin_name o ^ "i"
  | Movi _ -> "lda"
  | Fbin (o, _, _, _) -> fbin_name o
  | Funary (o, _, _) -> funary_name o
  | Cmov (c, _, _, _) -> "cmov" ^ cond_name c
  | Load (d, _, _, _) -> (match d.Reg.cls with Reg.Cint -> "ldq" | Reg.Cfp -> "ldt")
  | Store (s, _, _, _) -> (match s.Reg.cls with Reg.Cint -> "stq" | Reg.Cfp -> "stt")
  | Branch (c, _, _) -> "b" ^ cond_name c
  | Jump _ -> "br"
  | Halt -> "halt"

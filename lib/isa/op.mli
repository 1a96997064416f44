(** Operations of the reproduction ISA.

    The ISA is a small Alpha-EV6-flavoured RISC: two-source integer
    arithmetic/logic (register or immediate second source), floating-point
    arithmetic, conditional moves, loads/stores with a base register and a
    small signed offset, compare-against-zero conditional branches, an
    unconditional jump, and [Halt].

    Memory operations carry a [region] tag assigned by the workload
    generator: two accesses in different regions are guaranteed disjoint
    (the compiler's alias oracle, standing in for the paper's observation
    that most accesses are compiler-disambiguable stack traffic). Region
    [region_unknown] may alias anything. *)

type ibin =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Andnot
  | Shl | Shr
  | Cmpeq | Cmplt | Cmple
(** [Div]/[Rem] are signed truncating divide/remainder with the RISC-V
    fault-free convention: division by zero yields quotient -1 and
    remainder = dividend (no trap). Both occupy the long-latency integer
    class alongside [Mul]. *)

type fbin = Fadd | Fsub | Fmul | Fdiv | Fcmplt

type funary = Fneg | Fsqrt | Cvt_if  (** int-to-float convert *)

type cond = Eq | Ne | Lt | Ge | Le | Gt
(** Conditions test a register against zero, Alpha-style. *)

type label = int
(** Branch targets are basic-block identifiers. *)

type t =
  | Nop
  | Ibin of ibin * Reg.t * Reg.t * Reg.t        (** dst, src1, src2 *)
  | Ibini of ibin * Reg.t * Reg.t * int         (** dst, src1, imm *)
  | Movi of Reg.t * int64                       (** dst, literal *)
  | Fbin of fbin * Reg.t * Reg.t * Reg.t        (** dst, src1, src2 *)
  | Funary of funary * Reg.t * Reg.t            (** dst, src *)
  | Cmov of cond * Reg.t * Reg.t * Reg.t        (** dst, test, value: if test
                                                    satisfies cond, dst :=
                                                    value, else unchanged *)
  | Load of Reg.t * Reg.t * int * int           (** dst, base, offset, region *)
  | Store of Reg.t * Reg.t * int * int          (** src, base, offset, region *)
  | Branch of cond * Reg.t * label              (** taken target; fall-through
                                                    is the next block *)
  | Jump of label
  | Halt

val region_unknown : int
(** Region tag that may alias every other region (-1). *)

val defs : t -> Reg.t list
(** Registers written (zero register writes are still listed; the emulator
    discards them). *)

val uses : t -> Reg.t list
(** Registers read. [Cmov] reads its destination (the not-taken value). *)

val map_regs : (Reg.t -> Reg.t) -> t -> t
(** Applies a renaming to every register operand. *)

val is_branch : t -> bool
(** Conditional branches and jumps. *)

val is_mem : t -> bool
val is_load : t -> bool
val is_store : t -> bool
val is_fp : t -> bool
(** Floating-point compute operation (for int/fp workload accounting). *)

val latency : t -> int
(** Execution latency in cycles, excluding memory-hierarchy time for
    loads (which is added by the cache model). *)

val eval_ibin : ibin -> int64 -> int64 -> int64
val eval_fbin : fbin -> float -> float -> float Option.t
(** [None] signals an arithmetic fault (division by zero), which the
    emulator surfaces as an exception event. [Fcmplt] returns 1.0/0.0. *)

val eval_funary : funary -> int64 -> int64
(** Operates on the raw 64-bit register image ([Cvt_if] reinterprets). *)

val eval_cond : cond -> int64 -> bool

val cond_holds : cond -> int -> bool
(** [cond_holds c (Int64.compare v 0L)] is [eval_cond c v]: the same
    test on the value's sign, so a caller holding an unboxed register
    value passes an int rather than a boxed [int64]. *)

val mnemonic : t -> string
(** Short opcode name, e.g. ["addq"], used by the disassembler. *)

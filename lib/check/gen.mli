(** Seeded random-program generator for the differential fuzzer.

    A case is a list of code fragments: kernels from
    {!Braid_workload.Kernels} (the shapes the benchmark suite exercises)
    plus adversarial fragments the workload generators never emit —
    may-alias store/load pairs through runtime-computed pointers,
    branch-dense blocks stacking diamonds on loaded data,
    single-instruction braids (stores whose operands all come from an
    earlier block), and external-register pressure well past the 8-entry
    internal working-set bound.

    Every fragment carries its own derived seed, so rebuilding any
    {e subset} of a case's fragments is deterministic — this is what makes
    the greedy shrinker sound: dropping fragment 2 does not change what
    fragments 0, 1 and 3 generate. *)

type kernel =
  | Streaming
  | Hash_mix
  | Branchy
  | Bitscan
  | Reduction
  | Cmov_select

type kind =
  | Kernel of kernel
  | Alias_pair  (** may-alias store/load pairs, region_unknown both sides *)
  | Branch_dense  (** stacked data-dependent diamonds *)
  | Single_braids  (** stores with no in-block producers: 1-instr braids *)
  | Reg_pressure  (** >8 simultaneously live values in one block *)

type fragment = { kind : kind; fseed : int }

type case = { seed : int; index : int; fragments : fragment list }

val generate : seed:int -> index:int -> case
(** Case [index] of the stream named by [seed]: 2–5 fragments with
    per-fragment seeds, all derived from
    ["braid-fuzz-<seed>-<index>"]. *)

val build : case -> Program.t * (int * int64) list
(** Assembles the case into virtual-register IR plus its initial data
    image — the same artifact {!Braid_workload.Spec.generate} produces,
    ready for {!Braid_core.Transform}. Deterministic per case. *)

val with_fragments : case -> fragment list -> case
(** The same case with a fragment subset (shrinker constructor). *)

val kind_name : kind -> string
val describe : case -> string
(** e.g. ["seed=42 index=7 [kernel:hash-mix alias-pair]"] — everything
    needed to reproduce the case. *)

(** {1 RV mode}

    Random legal RV32IM words feeding the frontend self-check. *)

val rv_insn : Prng.t -> Braid_rv.Insn.t
(** A random well-formed instruction: registers in 0–31, immediates,
    shift amounts, and branch/jump offsets within their fields. *)

val rv_selfcheck : seed:int -> count:int -> string list
(** [count] derived cases. Each asserts that a legal word decodes back
    to exactly the instruction that produced it (and re-encodes to the
    same word), and that the translator lowers-or-rejects both that word
    and a uniformly random word with a typed error — never an
    exception. Returns violation descriptions; empty means pass. *)

(** Programs as arrays of basic blocks.

    A block's control transfer, if any, is its final instruction: a
    conditional [Branch] falls through to [fallthrough] when not taken, a
    [Jump] always transfers, and [Halt] ends the program. A block whose last
    instruction is none of these falls through unconditionally. *)

type block = {
  id : int;  (** equals its index in [blocks] *)
  instrs : Instr.t array;
  fallthrough : int option;  (** next block when no transfer is taken *)
}

type t = {
  blocks : block array;
  entry : int;
  mutable base_cache : int array option;
      (** internal: memoised {!block_base} table; use {!make} and never
          touch this field directly *)
}

val make : block list -> entry:int -> t
(** Validates: block ids are dense and equal to their index, every branch
    target and fallthrough names an existing block, [Branch]/[Jump]/[Halt]
    appear only in terminal position, and a block either halts, jumps, or
    has a fallthrough. Raises [Invalid_argument] otherwise. *)

val num_blocks : t -> int
val num_static_instrs : t -> int

val block_base : t -> int -> int
(** [block_base t b] is the global index of the first instruction of block
    [b]; instruction addresses are [4 * (block_base + offset)]. O(1) after
    the first call — the table is memoised on the program. *)

val base_table : t -> int array
(** The whole memoised [block_base] table (index = block id). Do not
    mutate. *)

val pc_of : t -> block_id:int -> offset:int -> int
(** Byte address of an instruction, for the I-cache and predictor. *)

val map_blocks : (block -> block) -> t -> t
(** Rebuilds the program applying [f] to every block (ids must be
    preserved); re-validates. *)

val iter_instrs : (block -> int -> Instr.t -> unit) -> t -> unit
(** [iter_instrs f t] calls [f block offset instr] for every static
    instruction. *)

val max_virt_index : t -> int
(** Largest virtual-register index used, or -1 if none. *)

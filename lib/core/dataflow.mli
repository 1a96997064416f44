(** Global liveness analysis over programs.

    Backward may-liveness with the standard fixpoint over the CFG. The
    braid pass uses [live_out] to decide which values a basic block must
    publish to the external register file; the register allocators use the
    per-block sets to build live intervals. *)

type t = {
  live_in : Regset.Set.t array;  (** indexed by block id *)
  live_out : Regset.Set.t array;
}

val successors : Program.t -> int -> int list
(** Static CFG successors of a block (branch target and/or fallthrough). *)

val block_uses_defs : Program.block -> Regset.Set.t * Regset.Set.t
(** [(upward_exposed_uses, defs)] of a block. *)

val liveness : Program.t -> t

(** Differential oracle: one program, four executions, one verdict.

    The reference semantics is the reference interpreter
    ({!Emulator.reference}) on the virtual IR. The oracle then compiles the
    program both ways ({!Braid_core.Transform} [conventional] and braid),
    emulates each binary sequentially on the compiled engine
    ({!Emulator.run}), and runs each requested timing core over its
    binary's trace with a live {!Braid_uarch.Probe}. Divergences
    reported:

    - ["non-terminating"]: an execution failed to halt within the step
      budget;
    - ["compile-memory"]: a binary's sequential memory image differs from
      the virtual IR's (a compiler bug, caught before blaming a core);
    - ["deadlock"]: the core raised {!Braid_uarch.Core.Deadlock};
    - ["commit-count"] / ["commit-order"]: the core committed a different
      number of instructions than it fetched, or out of fetch order;
    - ["regfile"] / ["memory"]: replaying the committed stream on the
      reference interpreter ({!Emulator.exec_instr}) ends with different
      external registers or memory than the binary's own sequential
      emulation on the compiled engine.

    Invariant violations observed by the probe are carried per core
    alongside the divergences. *)

type divergence = { core : string; kind : string; detail : string }

type core_report = {
  kind : Braid_uarch.Config.core_kind;
  name : string;
  cycles : int;
  violations : Braid_uarch.Probe.violation list;  (** first 200 *)
  violation_count : int;  (** exact total *)
}

type report = {
  divergences : divergence list;
  cores : core_report list;
  dynamic_count : int;  (** reference dynamic instruction count *)
}

val ok : report -> bool
(** No divergence and no invariant violation on any core. *)

val check :
  ?invariants:bool ->
  ?cores:Braid_uarch.Config.core_kind list ->
  ?inject_commit:(int array -> int array) ->
  Program.t ->
  init_mem:(int * int64) list ->
  report
(** Runs the full differential stack on virtual-register IR, timing
    [cores] (default {!Braid_uarch.Config.Core_kind.all}, every kind).
    [invariants] (default [true]) enables the monitor's structural
    checks; commit streams are always recorded. [inject_commit] perturbs
    the observed committed-uid sequence of every core before the oracle
    examines it — a fault-injection hook proving the oracle actually
    catches commit-order bugs (see the test suite). *)

val pp_divergence : Format.formatter -> divergence -> unit
val render : report -> string
(** Multi-line human-readable summary of a failing report. *)

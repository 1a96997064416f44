(** Shared timing-model state: in-flight instruction slots, dependence
    wakeup, register-file ports, bypass capacity, the external-register
    free list, the load-store queue, and in-order commit.

    The execution core ({!Exec_core}) owns only its queues, its steering
    and its select; everything it issues flows through {!do_issue} here,
    so port, bypass, latency and memory semantics are identical across
    paradigms.

    In-flight instructions are identified by their trace [uid]. Their
    mutable state lives only while they are in flight, in a ring of
    fixed-size slots inside the machine: uid [u] holds slot
    [u land (size - 1)], and the ring starts with a power of two at least
    [min inflight n] slots for an [n]-instruction trace, so creating a
    machine does no work proportional to the trace. A dispatching
    instruction claims its slot in {!can_dispatch}; the in-flight bound
    means the slot's previous owner has committed. A committed
    producer's value can still be unreadable, though: write-port overflow
    puts its external copy after its commit, and a clustered braid core
    adds the crossing delay. So a claim first checks the previous owner's
    settle cycle, the latest of its issue cycle + 1, its completion, and
    its external copy's visible cycle plus any crossing delay; if that
    cycle is still ahead, the ring doubles, every slot moving to its
    owner's place in the larger ring, instead of dropping the value.
    Hence a producer whose slot another instruction holds has settled,
    and every read of it may proceed at once.

    An instruction is decoded once, at fetch: {!decode} reads its static
    index and flag byte from the trace under one check and returns its
    {!Word}, the static part from a table {!create} builds once per
    static instruction and the trace's flag byte beside it. The fetch
    queue carries that word, and dispatch ({!can_dispatch}), the
    execution core's steering and the slot read only it.

    A slot holds the instruction's run state (owner uid, producers not
    yet readable, issue, completion and visible cycles, BEU or block
    window, scheduler queue, early-release flag) and what the machine
    reads of it after dispatch, copied in when the slot is claimed: its
    word and, for a load or store, its address. Issue, wakeup, settling,
    store-queue search and commit read only slots; after fetch the
    machine reads the trace only for a dispatching instruction's address
    and, at dispatch and at a braid issue, its own dependence entries
    ({!Trace.deps_into}), never another instruction's. So a streamed
    trace ({!Trace.stream}) may drop an instruction once it commits,
    even while its value is still settling.

    Dependences register when an instruction dispatches, as rename does:
    {!note_dispatch} schedules the wakeup of each issued producer whose
    value is not yet readable and joins the waiter list of each unissued
    one, which {!do_issue} wakes; the waiter's node carries the
    dependence's via bit. A value is readable from the cycle its
    external copy is visible (bypass or write-back), or from completion
    for an internal read of an internal value or a value with no external
    copy; never before the producer's issue cycle + 1. On a braid core
    with clustered BEUs (§5.2), an external value reaches another
    cluster [inter_cluster_latency] cycles after it is visible.

    Store addresses are known at dispatch. A dispatching load searches
    the in-flight stores, youngest first, for its address and waits for
    the store it finds to complete; it then forwards from it in 1 cycle.
    A load whose conflicting store has committed, or that found none,
    reads the data cache and pays the L1D latency (more on a miss).

    The external register file is modeled as an in-flight value buffer
    (rename free list): an entry is allocated at dispatch for each
    external-writing instruction and released at commit. The braid core
    additionally releases entries early, at dead-value time — once the
    producer has completed and its last external reader has read it —
    which is what lets the paper's 8-entry external file keep up with a
    256-entry one (Fig 6). It reads the trace's release bits: an issuing
    instruction frees each producer whose entry it reads last
    ({!Trace.entry_last}, from its own entries) one cycle later, unless
    the producer has left its slot (it has committed, and commit released
    it), and a value no instruction reads externally (the word's
    {!Trace.no_ext_reader} bit) frees the cycle after it completes. So {!create} raises [Invalid_argument] for a
    braid config over a trace whose bits are not {!Trace.marked}. *)

type mem_status =
  | Mem_blocked  (** the conflicting store has not completed *)
  | Mem_forward  (** the conflicting store forwards its data (1 cycle) *)
  | Mem_cache  (** no in-flight conflict: access the data cache *)

(** Per-cycle bounded resource that issue reserves in future cycles
    (register-file write ports, bypass slots): a circular window of usage
    counters stamped with the cycle they count for. Exposed for unit
    tests; the machine wires [set_now] to its own clock every
    {!begin_cycle}. *)
module Rc : sig
  type t

  val create : int -> t
  (** [create limit] — at most [limit] units per cycle. *)

  val set_now : t -> int -> unit
  (** Publish the current cycle; counter slots stamped earlier become
      reclaimable. The clock must never move backwards. *)

  val used : t -> int -> int
  val available : t -> int -> int -> bool

  val take : t -> int -> int -> unit
  (** Unchecked reservation (the caller verified [available]). *)

  val try_take : t -> int -> int -> bool
  (** Reserve if available; never raises, even with a zero limit. *)

  val take_first_free : t -> int -> int -> int
  (** [take_first_free t c n] reserves [n] units at the first cycle
      [>= c] with room and returns that cycle. Raises [Invalid_argument]
      when [n] exceeds the limit (no cycle could ever satisfy it). *)
end

(** An instruction's word: one int holding all a stage after fetch reads
    of it. The static part — load, store, conditional branch, jump,
    external write, internal write, block leader (offset 0), the external
    and internal read counts, the FU latency and the pc — is decoded once
    per static instruction; the dynamic part is the trace's flag byte
    (taken, faulting, the S bit {!Trace.braid_start}, and
    {!Trace.no_ext_reader}). *)
module Word : sig
  val of_static : Trace.static -> int
  (** The static part of every dynamic instance's word. Raises
      [Invalid_argument] when a read count exceeds 15, the latency 255,
      or the pc lies outside [[0, 2{^31})]. *)

  val is_load : int -> bool
  val is_store : int -> bool
  val is_cond_branch : int -> bool
  val is_jump : int -> bool

  val is_branch : int -> bool
  (** [is_cond_branch || is_jump]. *)

  val writes_ext : int -> bool
  val writes_int : int -> bool

  val is_leader : int -> bool
  (** The first instruction of its block (offset 0). *)

  val ext_reads : int -> int
  val int_reads : int -> int
  val latency : int -> int
  val pc : int -> int
  val is_taken : int -> bool
  val is_faulting : int -> bool
  val is_braid_start : int -> bool
  val no_ext_reader : int -> bool
end

type t

val create : ?probe:Probe.t -> ?hier:Mem_hier.hierarchy -> Config.t -> Trace.t -> t
(** [hier] is the memory hierarchy the machine loads and stores through;
    absent, a private ({!Mem_hier.create_hierarchy}) one is built from
    the config — byte-identical to the pre-split behaviour. A CMP passes
    a hierarchy attached to a shared backside instead.

    [probe] ({!Probe.off} by default) sees every dispatch, issue, commit
    and external-file release; its hooks never mutate machine state, so
    results are byte-identical whatever it records or checks. *)

val cfg : t -> Config.t

val probe : t -> Probe.t
(** The probe the machine was created with; the front end and the
    execution cores report their own events to it. *)

val trace : t -> Trace.t
(** The trace the machine runs; instructions are named by their uid in
    it. *)

val decode : t -> int -> int
(** [decode m u] is uid [u]'s {!Word}: the fetch stage's one read of the
    instruction ({!Trace.fetch}). Raises [Invalid_argument] for a uid the
    trace does not keep. *)

val static_word : t -> int -> int
(** [static_word m s] is the static part of the {!Word} of static index
    [s] of {!Trace.statics}, from the table {!create} decodes once.
    Raises [Invalid_argument] outside that table. *)

val now : t -> int
val begin_cycle : t -> unit
(** Advances the clock, applies due wakeups, releases and branch
    resolutions, resets per-cycle dispatch budgets. Call once per cycle
    before any stage. *)

val reg_ready : t -> int -> bool
(** All register producers of an in-flight instruction readable. *)

val note_resident : t -> int -> int -> unit
(** [note_resident m u c] records that the execution core placed [u] in
    its queue [c], on every kind: the in-order queue, a dep-steer FIFO,
    an ooo scheduler, a braid BEU or a CG-OoO block window, [c] below
    [max clusters block_windows]. It only records the queue:
    {!note_dispatch}, called next, counts [u] in {!ready_in} once its
    registers are ready, and {!do_issue} clears the residency. *)

val home : t -> int -> int
(** The queue {!note_resident} recorded for [u] while [u] is resident and
    unissued; -1 before that, after {!do_issue}, and once [u]'s slot
    belongs to another uid. *)

val ready_in : t -> int -> int
(** Resident, not-yet-issued instructions of queue [c] whose registers
    are ready ({!reg_ready}). The select uses it to skip queues, and
    window tails, that cannot issue this cycle. *)

val ready : t -> int
(** {!ready_in} summed over every queue: the select stops visiting
    queues once none is left. *)

val executing : t -> int
(** Braid core: issued instructions not yet complete. {!do_issue} counts
    each from its issue cycle until its completion, or for its issue
    cycle alone when it completes at once, and {!begin_cycle} drops
    those whose time is up. They still occupy their BEU. 0 on every
    other kind. *)

val issued : t -> int -> bool
val complete_cycle : t -> int -> int
(** [max_int] until the instruction issues. These two answer for an
    instruction still in its slot, or not yet dispatched; for one whose
    slot a later instruction has taken they raise [Invalid_argument]
    naming the uid and the current cycle, never returning another
    instruction's state. *)

val set_beu : t -> int -> int -> unit
(** Records the BEU (braid core) or block window (CG-OoO) an instruction
    enters; the braid core sets it before {!note_dispatch}, whose wake
    times depend on it when BEUs are clustered. *)

val mem_ready : t -> int -> mem_status
(** Load ordering status of a dispatched, uncommitted instruction;
    non-loads are always [Mem_cache]. Pure check — no cache state is
    touched. *)

val can_issue_ports : t -> int -> bool
(** Enough external register file read ports remain this cycle: each
    {!begin_cycle} resets a budget of [rf_read_ports] reads, which
    {!do_issue} draws on. *)

val do_issue : t -> int -> unit
(** Commits the issue at the current cycle: consumes read ports, computes
    the completion time (FU latency; cache or forwarding for loads),
    schedules writeback (write port), bypass, and the wakeups of the
    consumers waiting on it. The instruction must have dispatched, and
    the caller must have checked [reg_ready], [mem_ready <> Mem_blocked]
    and [can_issue_ports]; violating any of these raises
    [Invalid_argument] with a message naming the instruction uid and the
    current cycle. *)

type dispatch_block =
  | Block_none  (** every front-end resource is available *)
  | Block_alloc
  | Block_rename
  | Block_regs
  | Block_checkpoint
  | Block_lsq
  | Block_inflight

val can_dispatch : t -> int -> int -> dispatch_block
(** [can_dispatch m u w] checks, for uid [u] with word [w] ({!decode}),
    the front-end resources at the current cycle, in this order:
    allocate width, rename source/destination bandwidth, external
    register availability, branch checkpoints, LSQ space, in-flight
    bound. The first resource that refuses the instruction, or
    [Block_none] when dispatch may proceed. Every call that finds no free
    external register counts towards {!stall_dispatch_regs}, whichever
    resource refused first. [Block_none] also claims the instruction's
    slot, once, copying [w] into it: instructions are checked in uid
    order, and the execution core records its BEU or scheduler there
    before {!note_dispatch}. *)

val dispatch_block_name : dispatch_block -> string
(** Short stable label ("alloc-width", "ext-regs", ...) for stall-reason
    annotations in traces. *)

val note_dispatch : t -> int -> unit
(** Consumes the dispatch resources checked by [can_dispatch] and
    registers the instruction's dependences; a producer that has left
    its slot has settled and adds no wait. A load finds its conflicting
    store; a store joins the store queue. *)

val commit_stage : t -> unit
(** In-order commit of completed slots, up to the commit width; releases
    registers (conventional scheme) and LSQ entries, and drains stores
    from the store queue to the data cache. *)

val scheduled : t -> bool
(** Some calendar still holds an event: a wakeup, a register release, a
    branch resolution or a BEU leave. A machine that commits nothing for
    a long time is stuck only when nothing is scheduled. *)

val all_committed : t -> bool
val committed_count : t -> int

val hierarchy : t -> Mem_hier.hierarchy
val predictor : t -> Predictor.t

val stall_dispatch_regs : t -> int
(** Cycles × instructions dispatch stalled for lack of an external
    register (diagnostic). *)

val dispatched_count : t -> int
val issued_count : t -> int

val early_releases : t -> int
(** External-file entries released at dead-value time, before their
    producer committed (braid core). *)

val commit_releases : t -> int
(** External-file entries released at their producer's commit. *)

type activity = {
  ext_rf_reads : int;  (** external register file read accesses *)
  ext_rf_writes : int;
  int_rf_reads : int;  (** BEU-internal register file accesses *)
  int_rf_writes : int;
  bypass_values : int;  (** values that rode the bypass network *)
}

val activity : t -> activity
(** Structure-access counts accumulated over the run, feeding the
    complexity/energy comparison of §5.1. *)

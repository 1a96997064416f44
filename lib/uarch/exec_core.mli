(** The pluggable execution core: scheduling structure and selection
    policy, and nothing else.

    A core owns only its queues and their steering; all issue
    side-effects (ports, latencies, wakeups, memory) are delegated to
    {!Machine.do_issue}, so every paradigm shares identical port, bypass
    and memory semantics and differs exactly where the paper says it
    does. This interface is the full contract {!Core} (and any future
    paradigm, e.g. EDGE) depends on — nothing about a core's internals
    leaks past it.

    The paper puts its paradigms on one scheduling line (§3.3, Figs 11
    and 13), and one select rule serves all five kinds here: each cycle,
    each queue issues at most its budget, oldest first, from the
    [window]-entry head of the queue, and stops once {!Machine.ready_in}
    says no register-ready entry is left. A kind is its queues, its
    steering, its window and its budget:

    {v
kind       queues         steering                        window        budget
in-order   1              the one queue, while it has     1             C x F
                          room
dep-steer  C FIFOs        a FIFO with room whose tail     1             F
                          produces the uid, else the
                          first empty one
ooo        C schedulers   round-robin over the            whole queue   F
                          schedulers with room
braid      C BEUs         an S-bit instruction claims     sched_window  F
                          the first empty BEU; the rest   (whole queue
                          follow it into that BEU         if beu_out_
                                                          of_order)
cgooo      block_windows  a block leader claims the       1             block_head_window,
                          first empty window; windows                   at most the C x F
                          are visited oldest block first                left this cycle
    v}
    C is [clusters], F is [fus_per_cluster], and a budget is the issues
    per queue per cycle.

    The in-order core is the out-of-order scheduler's window shrunk to
    the head of one queue; dependence steering (Palacharla et al.) keeps
    a dependence chain in each FIFO; a braid BEU issues from a small head
    window onto its private FUs, internal values living inside it, one
    braid per BEU at a time; CG-OoO (arXiv 1606.01607) is the block-window
    point, running the braid binary: its global/local register split is
    the external/internal file split, with the global file released at
    commit.

    {2 Contract}

    The driving pipeline must, each machine cycle and in this order: call
    {!Machine.begin_cycle} (wakeups land), commit, call {!cycle} exactly
    once, then dispatch. The invariants each side relies on:

    - {!create} may allocate structures but performs no machine
      mutation.
    - {!try_dispatch} is called only for the uid at the head of the fetch
      queue, with the word fetch queued for it ({!Machine.decode}), only
      after {!Machine.can_dispatch} returned [Block_none] this cycle, and
      in trace (uid) order. Steering reads the word (braid's S bit,
      cgooo's block leader) and, on dep-steer, the uid's dependence
      entries ({!Trace.deps_into}); nothing else of the trace. On [true]
      the core has
      accepted residency of the uid and recorded its queue
      ({!Machine.note_resident}; braid and cgooo also {!Machine.set_beu});
      the caller then consumes front-end resources via
      {!Machine.note_dispatch}. On [false] the core is full or cannot
      steer the uid this cycle, nothing was inserted, and the caller must
      stop dispatching this cycle (and counts the refusal).
    - {!cycle} selects and issues for the current cycle; every issued uid
      goes through {!Machine.do_issue} after the core checked
      {!Machine.reg_ready}, [mem_ready <> Mem_blocked] and
      {!Machine.can_issue_ports}. Within one cycle no entry becomes ready
      to issue (wakeups land only at [begin_cycle]), which is what makes
      single-pass window scans legal.
    - {!occupancy} is the number of instructions resident in the core:
      dispatched and not yet issued, a count {!try_dispatch} and {!cycle}
      keep, plus the braid core's issued but incomplete ones
      ({!Machine.executing}). It is read after {!cycle} each cycle for
      the occupancy statistics and must not mutate anything. *)

type t

val create : Machine.t -> t
(** Builds the core selected by the machine's configuration
    ([cfg.kind]). *)

val try_dispatch : t -> int -> int -> bool
(** [try_dispatch t u w]: space/steering check for uid [u], whose word
    is [w]; inserts on success. *)

val cycle : t -> unit
(** Select and issue for the current cycle. Call exactly once per
    machine cycle, after {!Machine.begin_cycle} and commit. *)

val occupancy : t -> int
(** Instructions resident in the core (pure). *)

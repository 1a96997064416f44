(** The pluggable execution core: scheduling structure and selection
    policy, and nothing else.

    A core owns only its queues/windows and its per-cycle selection; all
    issue side-effects (ports, latencies, wakeups, memory) are delegated
    to {!Machine.do_issue}, so every paradigm shares identical port,
    bypass and memory semantics and differs exactly where the paper says
    it does. This interface is the full contract {!Core} (and any future
    paradigm, e.g. EDGE) depends on — nothing about a core's internals
    leaks past it.

    The four paradigms of Fig 13, plus CG-OoO:

    - {b In-order}: one queue; up to the issue width of consecutive ready
      instructions leave from the head; the first stalled instruction
      blocks everything behind it.
    - {b Dependence steering} (Palacharla et al.): instructions are steered
      at dispatch to a FIFO whose tail is one of their producers, else to
      an empty FIFO, else dispatch stalls; only FIFO heads issue.
    - {b Out-of-order}: distributed schedulers, oldest-ready-first
      selection anywhere in each scheduler's window, one FU per scheduler.
    - {b Braid}: whole braids are distributed to a free BEU (one braid per
      BEU at a time, per §3.3); each BEU issues from a small window at the
      head of its FIFO onto its private FUs; internal values live entirely
      inside the BEU.
    - {b CG-OoO} (arXiv 1606.01607): whole basic blocks (the braid pass's
      block leaders mark the boundaries) are steered to a free block
      window; windows are selected out of order, oldest block first, while
      each window issues strictly in order from a
      [block_head_window]-entry head over a shared FU pool. Runs the braid
      binary: the paper's global/local register split is the
      external/internal file split, with the global file released at
      commit.

    {2 Contract}

    The driving pipeline must, each machine cycle and in this order: call
    {!Machine.begin_cycle} (wakeups land), commit, call {!cycle} exactly
    once, then dispatch. The invariants each side relies on:

    - {!create} may allocate structures but performs no machine
      mutation.
    - {!try_dispatch} is called only for the uid at the head of the fetch
      queue, only after {!Machine.can_dispatch} returned [Block_none]
      this cycle, and in
      trace (uid) order. On [true] the core has accepted residency of the
      uid (the caller then consumes front-end resources via
      {!Machine.note_dispatch}); on [false] the core is full or cannot
      steer the uid this cycle, nothing was inserted, and the caller must
      stop dispatching this cycle (and counts the refusal).
    - {!cycle} selects and issues for the current cycle; every issued uid
      goes through {!Machine.do_issue} after the core checked
      {!Machine.reg_ready}, [mem_ready <> Mem_blocked] and
      {!Machine.can_issue_ports}. Within one cycle nothing becomes newly
      issuable (wakeups land only at [begin_cycle]), which is what makes
      single-pass window scans legal.
    - {!occupancy} is the number of instructions resident in the core:
      dispatched and not yet issued, plus (for cores that track them)
      issued-but-incomplete. It is read after {!cycle} each cycle for the
      occupancy statistics and must not mutate anything. *)

type t

val create : Machine.t -> t
(** Builds the core selected by the machine's configuration
    ([cfg.kind]). *)

val try_dispatch : t -> int -> bool
(** Space/steering check for an instruction uid; inserts on success. *)

val cycle : t -> unit
(** Select and issue for the current cycle. Call exactly once per
    machine cycle, after {!Machine.begin_cycle} and commit. *)

val occupancy : t -> int
(** Instructions resident in the core (pure). *)

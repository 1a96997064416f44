(** The memory system behind the per-core L1s.

    A {!hierarchy} bundles a core's private L1I/L1D with a backside
    ({!t}): either [Private] — the historical per-machine L2 + main
    memory, accessed in exactly the order the old monolithic hierarchy
    used, so solo timing is byte-identical — or [Shared] — one L2 common
    to all attached cores with an invalidation-based MSI directory:

    - a read miss that finds a remote Modified owner downgrades it
      (owner writes back, both keep the line Shared) and pays one extra
      L2 latency for the flush;
    - a store drain invalidates every remote sharer's L1D copy
      (back-invalidation) and takes Modified ownership;
    - sharer sets are conservative — silent L1 evictions leave stale
      bits, which only cause harmless spurious invalidations.

    Instruction fetches bypass the directory (code is read-only). *)

type t
(** A backside: private L2 + memory, or the shared coherent L2. *)

type shared
(** The shared backside, created once per CMP and attached per core. *)

type hierarchy
(** One core's view: private L1I/L1D over a backside. *)

val create_hierarchy : Config.memory -> hierarchy
(** The solo (private-backside) hierarchy. Byte-identical in timing to
    the pre-split monolithic hierarchy. *)

val create_shared : memory_latency:int -> Config.cache_geometry -> shared
(** The shared L2 + directory, counting coherence traffic
    ({!coh_of_shared}). *)

val attach : core:int -> shared -> Config.memory -> hierarchy
(** [attach ~core s m] builds core [core]'s L1s from [m] over the shared
    backside and registers its L1D for back-invalidation. [m]'s [l2]
    geometry is ignored (the shared L2 was fixed at {!create_shared}).
    Raises [Invalid_argument] if the core id is already attached. *)

val instr_latency : hierarchy -> int -> int
(** Fetch latency for the line containing a byte address: the L1I latency
    on a hit, plus L2/memory on misses. 1 when the configuration has a
    perfect I-cache. *)

val data_latency : hierarchy -> int -> int
(** Load-to-use latency for a data access, analogous; on a shared
    backside this performs the coherent read (downgrading a remote
    owner). *)

val drain_store : hierarchy -> int -> unit
(** Store drain at commit: fills L1D/L2 (latency is off the critical
    path) and, on a shared backside, performs the directory write —
    remote invalidations and ownership. No-op with a perfect D-cache. *)

val warm_instr : hierarchy -> int -> unit
(** Pre-fills the L1I and the backside L2 with the line of a code
    address, without touching hit/miss statistics. *)

val warm_l2 : hierarchy -> int -> unit
(** Pre-fills the backside L2 with a data line, without statistics. *)

val warm_l2_lines : hierarchy -> int list -> unit
(** [warm_l2_lines h addrs] leaves the backside L2 exactly as {!warm_l2}
    of each address in order does, warming once per run of consecutive
    addresses on one L2 line: a repeat of the line just warmed would only
    renew its set's newest stamp. A program's initial data image (eight
    words to a 64-byte line) warms in an eighth of the accesses. *)

val warm_data : hierarchy -> int -> unit
(** Pre-fills the L1D and backside L2 with a data line, without
    statistics (sampled-simulation warm-up replay). *)

val l1i_stats : hierarchy -> int * int
val l1d_stats : hierarchy -> int * int

val l2_stats : hierarchy -> int * int
(** Backside L2 [(hits, misses)] — the shared L2's totals when attached
    to one. *)

val is_shared : hierarchy -> bool
(** Attached to a shared backside (its L2 is not this core's alone). *)

val shared_l2_stats : shared -> int * int

type coh_stats = {
  invalidations : int;  (** remote L1D copies dropped by stores *)
  downgrades : int;  (** M owners demoted to S by remote reads *)
  writebacks : int;  (** dirty lines flushed (downgrade or steal) *)
  remote_hits : int;  (** shared-L2 hits on lines another core fetched *)
}

val coh_of_shared : shared -> coh_stats

val coherence_violations : shared -> string list
(** Directory-legality scan: a Modified line must be held by its owner
    alone (sharer mask = owner bit, no other attached L1D holds any of
    its bytes). Empty = legal. For the invariant monitor / fuzz. *)

(** Set-associative caches with true LRU.

    The timing model charges the full latency chain at access time and
    fills all levels (non-blocking, unlimited MSHRs — adequate for
    relative comparisons across execution cores, which all share this
    model). The two-level hierarchy built from these caches lives in
    {!Mem_hier}. *)

type t

val create : Config.cache_geometry -> t

val access : t -> int -> bool
(** [access t addr] probes and updates state; returns hit. Fills on miss. *)

val warm : t -> int -> unit
(** Like {!access} but counts nothing: warm-up pre-fill. *)

val latency : t -> int
(** Access latency of this level (from the creating geometry). *)

val line_bytes : t -> int
val line_of : t -> int -> int
(** The line index of a byte address under this cache's line size. *)

val probe : t -> int -> bool
(** Presence check that touches neither LRU state nor statistics
    (coherence-legality scans). *)

val invalidate_line : t -> int -> bool
(** [invalidate_line t addr] drops the line holding [addr] if present
    (directory back-invalidation); returns whether a line was dropped.
    Touches no statistics and no LRU state of other lines. *)

val hits : t -> int
val misses : t -> int

val stats : t -> int * int
(** [(hits, misses)]. *)

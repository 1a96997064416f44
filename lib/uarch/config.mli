(** Simulator configurations (paper Table 4).

    One record drives the whole pipeline; the presets below are the paper's
    default 8-wide out-of-order and braid machines plus the in-order and
    dependence-steering baselines. Sensitivity experiments (Figs 5–12)
    start from a preset and override one field. *)

type core_kind =
  | In_order  (** one in-order issue queue *)
  | Dep_steer  (** Palacharla-style dependence-steered FIFOs *)
  | Ooo  (** distributed out-of-order schedulers *)
  | Braid_exec  (** braid execution units *)
  | Cgooo
      (** CG-OoO (arXiv 1606.01607): basic blocks steered whole to block
          windows scheduled out of order, in-order issue within a block *)

type predictor_kind =
  | Perceptron  (** Table 4: 512-entry weight table, 64-bit history *)
  | Gshare  (** comparison predictor: 4K 2-bit counters, 12-bit history *)
  | Perfect_prediction  (** the Fig 1 limit study *)

type cache_geometry = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  latency : int;
}

type memory = {
  l1i : cache_geometry;
  l1d : cache_geometry;
  l2 : cache_geometry;
  memory_latency : int;
  perfect_icache : bool;
  perfect_dcache : bool;
}

type t = {
  name : string;
  kind : core_kind;
  (* front end *)
  fetch_width : int;
  max_branches_per_cycle : int;
  fetch_buffer : int;
  predictor : predictor_kind;
  misprediction_penalty : int;
  (* allocate / rename *)
  alloc_width : int;
  rename_src_width : int;
  rename_dst_width : int;
  commit_width : int;
  ext_regs : int;  (** rename free-list size (external register file) *)
  inflight : int;  (** checkpoint/ROB-equivalent in-flight bound *)
  (* execution core *)
  clusters : int;  (** schedulers / FIFOs / BEUs *)
  cluster_entries : int;  (** entries per scheduler/FIFO *)
  sched_window : int;  (** FIFO scheduling window (braid, dep, in-order) *)
  fus_per_cluster : int;
  (* register file and bypass *)
  rf_read_ports : int;
  rf_write_ports : int;
  bypass_per_cycle : int;
  (* memory *)
  mem : memory;
  lsq_entries : int;
  (* braid-core variants *)
  beu_out_of_order : bool;
      (** §5.1: replace each BEU's FIFO window with full out-of-order
          selection over its queue (the considered-and-rejected design) *)
  beu_cluster_size : int;
      (** §5.2: group BEUs into clusters of this size (0 = unclustered);
          external values crossing clusters pay extra latency *)
  inter_cluster_latency : int;
  max_unresolved_branches : int;
      (** checkpoint count (§3.4): unresolved conditional branches in
          flight; dispatch stalls beyond it. 0 = unlimited. Braid
          checkpoints are far smaller (the 8-entry external file, no
          internal values), so equal checkpoint storage affords the braid
          machine several times more of them. *)
  model_wrong_path_fetch : bool;
      (** fetch down the mispredicted path while a redirect is pending,
          polluting the I-cache (default off: wrong-path work is a pure
          bubble, as DESIGN.md documents) *)
  btb_entries : int;
      (** finite branch-target buffer; a taken transfer missing in the BTB
          costs a one-cycle fetch bubble. 0 = perfect targets. *)
  block_windows : int;
      (** CG-OoO: block windows competing for out-of-order block-level
          selection (each holds one basic block, capacity
          [cluster_entries]) *)
  block_head_window : int;
      (** CG-OoO: instructions issuable per cycle from the strictly
          in-order head of each block window *)
}

val default_memory : memory

val ooo_8wide : t
(** Table 4 "Out-of-Order Parameters": 8-wide, 8×32 schedulers, 256
    registers, 16r/8w, 8 bypass values/cycle, 23-cycle penalty. *)

val braid_8wide : t
(** Table 4 "Braid Parameters": 8 BEUs with 32-entry FIFOs, 2-entry
    windows, 2 FUs each; 8-entry external RF with 6r/3w; 2 bypass
    values/cycle; 19-cycle penalty. *)

val in_order_8wide : t
val dep_steer_8wide : t

val cgooo_8wide : t
(** CG-OoO: 8 block windows over a shared 8-FU pool, 3-entry in-order
    block heads, a 64-entry commit-released global file (8r/4w) with the
    local (internal) files inside the windows. Runs the braid binary —
    the paper's global/local register split is the external/internal
    split. *)

val scale_width : t -> int -> t
(** [scale_width cfg w] rescales a preset to issue width [w] (4, 8 or 16):
    fetch/alloc/commit widths, cluster count and rename bandwidth scale
    proportionally; per-cluster shape is preserved. *)

val perfect_frontend : t -> t
(** Perfect branch prediction and perfect caches (Fig 1's machine). *)

(** {2 First-class configuration API}

    Configurations are named, serializable, diffable values: one internal
    field table drives JSON serialization, the content digest, validation
    and string-level overrides, so the vocabulary the sweep engine exposes
    ([--axis ext_regs=4,8,...]) can never drift from the record. *)

(** The one place core-kind names live. Every front end — CLI [--core],
    api requests, DSE axes, fuzz — converts through this module, so an
    unknown kind yields the same typed error listing the same valid
    names everywhere. *)
module Core_kind : sig
  type t = core_kind = In_order | Dep_steer | Ooo | Braid_exec | Cgooo

  val all : t list
  (** Every registered kind: in-order, dep-steer, ooo, braid, cgooo. *)

  val names : string list
  (** [List.map to_string all]. *)

  val to_string : t -> string
  (** ["in-order"], ["dep-steer"], ["ooo"], ["braid"] or ["cgooo"]. *)

  val of_string : string -> (t, string) result
  (** Inverse of {!to_string} (case-insensitive, trimmed); the error
      lists every valid name. *)

  val braid_binary : t -> bool
  (** Whether the kind runs the braid binary (braid, cgooo) rather than
      the conventional one (in-order, dep-steer, ooo). The one rule by
      which every front end picks a binary or its trace. *)
end

val kind_to_string : core_kind -> string
(** [Core_kind.to_string]. *)

val predictor_to_string : predictor_kind -> string
val predictor_of_string : string -> (predictor_kind, string) result

val preset_of_kind : core_kind -> t
(** The Table 4 preset for each paradigm ([braid_8wide] for [Braid_exec],
    …). *)

val presets : t list
(** The five presets, in complexity order (in-order, dep-steer, braid,
    cgooo, ooo). *)

val sweepable_fields : string list
(** Every field {!override} (and hence a sweep axis) can address, in
    canonical JSON order. Includes the flattened memory-hierarchy fields
    ([l1d.latency], [memory_latency], …). *)

val get : t -> string -> (string, string) result
(** [get c field] is the canonical string rendering of one sweepable
    field's current value. *)

val override : t -> (string * string) list -> (t, string) result
(** [override c [(field, value); ...]] applies field-name → value
    overrides left to right; this is the [--axis] parsing primitive.
    Unknown fields fail with a message listing every sweepable field;
    unparseable values name the offending field. The result is not
    implicitly {!validate}d. *)

val to_json : t -> string
(** Canonical flat JSON object: ["name"] first, then every sweepable field
    in {!sweepable_fields} order (memory fields flattened as
    [l1d.size_bytes] etc.). [of_json (to_json c) = Ok c]. *)

val of_json : string -> (t, string) result
(** Parses {!to_json}'s shape with {!Braid_util.Json}. Field order is
    irrelevant; missing, duplicate or unknown fields and malformed values
    are errors. *)

val digest : t -> string
(** Stable hex content digest of the canonical JSON with the [name]
    erased: identically parameterised machines hash alike whatever they
    are called, and any parameter change alters the digest. Keys the
    design-space-exploration result cache. *)

val validate : t -> (t, string) result
(** Rejects nonsense before it can crash (or silently skew) a simulation:
    non-positive widths/ports/window sizes, zero clusters,
    [sched_window > cluster_entries], degenerate cache geometries. The
    error aggregates every violated rule. All {!presets} validate. *)

(** The typed CMP section: core count, workload assignment and shared-L2
    geometry for a multicore rate-mode run.

    Deliberately {e not} part of the per-core field table — adding fields
    there would change every config {!digest} and invalidate every sweep
    cache. A CMP point is a per-core config plus this record. *)
module Cmp : sig
  type nonrec t = {
    cores : int;  (** cores tiled over the shared L2 *)
    workloads : string list;  (** benchmark names, assigned round-robin *)
    l2 : cache_geometry;  (** the shared L2 *)
  }

  val default_l2 : int -> cache_geometry
  (** The solo L2 geometry with capacity scaled by the core count, so
      per-core capacity pressure stays comparable across a cores sweep. *)

  val make :
    ?l2:cache_geometry option -> cores:int -> workloads:string list -> unit -> t
  (** [l2] defaults to [default_l2 cores]. *)

  val validate : t -> (t, string) result
  (** Positive core count (≤ 64: one-word sharer masks), at least one
      workload, sane L2 geometry. Aggregates every violated rule. *)

  val workload_of : t -> int -> string
  (** The benchmark assigned to core [i] (round-robin). *)
end

type core_kind = In_order | Dep_steer | Ooo | Braid_exec | Cgooo

type predictor_kind = Perceptron | Gshare | Perfect_prediction

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
  fetch_width : int;
  max_branches_per_cycle : int;
  fetch_buffer : int;
  predictor : predictor_kind;
  misprediction_penalty : int;
  alloc_width : int;
  rename_src_width : int;
  rename_dst_width : int;
  commit_width : int;
  ext_regs : int;
  inflight : int;
  clusters : int;
  cluster_entries : int;
  sched_window : int;
  fus_per_cluster : int;
  rf_read_ports : int;
  rf_write_ports : int;
  bypass_per_cycle : int;
  mem : memory;
  lsq_entries : int;
  (* braid-core variants (§5.1 / §5.2) *)
  beu_out_of_order : bool;
  beu_cluster_size : int;
  inter_cluster_latency : int;
  max_unresolved_branches : int;  (* checkpoint count; 0 = unlimited *)
  (* front-end fidelity options *)
  model_wrong_path_fetch : bool;  (* pollute the I-cache down the wrong path *)
  btb_entries : int;  (* 0 = perfect target prediction *)
  (* CG-OoO core axes *)
  block_windows : int;  (* block windows competing for selection *)
  block_head_window : int;  (* in-order issue window at each block head *)
}

let default_memory =
  {
    l1i = { size_bytes = 64 * 1024; ways = 4; line_bytes = 64; latency = 3 };
    l1d = { size_bytes = 64 * 1024; ways = 2; line_bytes = 64; latency = 3 };
    l2 = { size_bytes = 1024 * 1024; ways = 8; line_bytes = 64; latency = 6 };
    memory_latency = 400;
    perfect_icache = false;
    perfect_dcache = false;
  }

let ooo_8wide =
  {
    name = "ooo-8";
    kind = Ooo;
    fetch_width = 8;
    max_branches_per_cycle = 3;
    fetch_buffer = 32;
    predictor = Perceptron;
    misprediction_penalty = 23;
    alloc_width = 8;
    rename_src_width = 16;
    rename_dst_width = 8;
    commit_width = 8;
    ext_regs = 256;
    inflight = 256;
    clusters = 8;
    cluster_entries = 32;
    sched_window = 32 (* full window: out-of-order select *);
    fus_per_cluster = 1;
    rf_read_ports = 16;
    rf_write_ports = 8;
    bypass_per_cycle = 8;
    mem = default_memory;
    lsq_entries = 64;
    beu_out_of_order = false;
    beu_cluster_size = 0;
    inter_cluster_latency = 2;
    max_unresolved_branches = 0;
    model_wrong_path_fetch = false;
    btb_entries = 0;
    block_windows = 8;
    block_head_window = 3;
  }

let braid_8wide =
  {
    name = "braid-8";
    kind = Braid_exec;
    fetch_width = 8;
    max_branches_per_cycle = 3;
    fetch_buffer = 32;
    predictor = Perceptron;
    misprediction_penalty = 19;
    (* instruction throughput matches the fetch width; Table 4's "4
       operands" is the external-destination allocation bandwidth
       (rename_dst_width) — internal destinations allocate nothing *)
    alloc_width = 8;
    rename_src_width = 8;
    rename_dst_width = 4;
    commit_width = 8;
    ext_regs = 8;
    inflight = 256;
    clusters = 8;
    cluster_entries = 32;
    sched_window = 2;
    fus_per_cluster = 2;
    rf_read_ports = 6;
    rf_write_ports = 3;
    bypass_per_cycle = 2;
    mem = default_memory;
    lsq_entries = 64;
    beu_out_of_order = false;
    beu_cluster_size = 0;
    inter_cluster_latency = 2;
    max_unresolved_branches = 0;
    model_wrong_path_fetch = false;
    btb_entries = 0;
    block_windows = 8;
    block_head_window = 3;
  }

(* CG-OoO (arXiv 1606.01607): whole basic blocks steered to block windows
   that are selected out of order relative to each other while each window
   issues strictly in order from a small head. The paper's global/local
   register split maps onto the external/internal files, so the core runs
   the braid binary; the global file is a conventional commit-released
   file, mid-sized between the braid machine's 8 entries and the
   out-of-order machine's 256-entry rename file. *)
let cgooo_8wide =
  {
    braid_8wide with
    name = "cgooo-8";
    kind = Cgooo;
    (* block windows replace the BEUs; the FU pool is shared *)
    block_windows = 8;
    block_head_window = 3;
    clusters = 4;
    fus_per_cluster = 2;
    (* global register file: 64 entries, ported between the braid and
       out-of-order extremes; local values stay inside the windows *)
    ext_regs = 64;
    rf_read_ports = 8;
    rf_write_ports = 4;
    bypass_per_cycle = 4;
    (* block-level scheduling keeps rename narrow but the pipeline is a
       little deeper than the braid machine's *)
    misprediction_penalty = 21;
  }

let in_order_8wide =
  {
    ooo_8wide with
    name = "in-order-8";
    kind = In_order;
    clusters = 1;
    cluster_entries = 64;
    sched_window = 8;
    fus_per_cluster = 8;
    misprediction_penalty = 19;
    (* in-order issue keeps values briefly in flight: the architectural
       file plus a small completion buffer, not a 256-entry rename file *)
    ext_regs = 64;
  }

let dep_steer_8wide =
  {
    ooo_8wide with
    name = "dep-steer-8";
    kind = Dep_steer;
    clusters = 8;
    cluster_entries = 32;
    sched_window = 1;
    fus_per_cluster = 1;
    (* only the scheduler is simplified; rename and the register file stay
       conventional, so the pipeline keeps the conventional depth *)
    misprediction_penalty = 23;
  }

let scale_width cfg w =
  if w <= 0 then invalid_arg "Config.scale_width";
  let ratio_num = w and ratio_den = 8 in
  let scale x = max 1 (x * ratio_num / ratio_den) in
  {
    cfg with
    name = Printf.sprintf "%s@%dw" (List.hd (String.split_on_char '@' cfg.name)) w;
    fetch_width = w;
    alloc_width = scale cfg.alloc_width;
    rename_src_width = scale cfg.rename_src_width;
    rename_dst_width = scale cfg.rename_dst_width;
    commit_width = w;
    clusters = scale cfg.clusters;
    block_windows = scale cfg.block_windows;
    fus_per_cluster = cfg.fus_per_cluster;
    rf_read_ports = scale cfg.rf_read_ports;
    rf_write_ports = scale cfg.rf_write_ports;
    bypass_per_cycle = scale cfg.bypass_per_cycle;
    inflight = scale cfg.inflight;
    lsq_entries = scale cfg.lsq_entries;
    fetch_buffer = scale cfg.fetch_buffer;
  }

let perfect_frontend cfg =
  {
    cfg with
    predictor = Perfect_prediction;
    mem = { cfg.mem with perfect_icache = true; perfect_dcache = true };
  }

(* ------------------------------------------------------------------ *)
(* First-class configuration API: stable names, serialization, digest, *)
(* validation, and field-level overrides. One field table drives all   *)
(* of it, so the JSON shape, the sweepable-field vocabulary and the    *)
(* digest can never drift apart.                                       *)
(* ------------------------------------------------------------------ *)



(* The one place core-kind names live: every front end (CLI, api, DSE
   axes, fuzz) converts through this module, so an unknown kind produces
   the same typed error, listing the same valid names, everywhere. *)
module Core_kind = struct
  type t = core_kind = In_order | Dep_steer | Ooo | Braid_exec | Cgooo

  let all = [ In_order; Dep_steer; Ooo; Braid_exec; Cgooo ]

  let to_string = function
    | In_order -> "in-order"
    | Dep_steer -> "dep-steer"
    | Ooo -> "ooo"
    | Braid_exec -> "braid"
    | Cgooo -> "cgooo"

  let names = List.map to_string all

  let of_string s =
    let needle = String.lowercase_ascii (String.trim s) in
    match List.find_opt (fun k -> String.equal (to_string k) needle) all with
    | Some k -> Ok k
    | None ->
        Error
          (Printf.sprintf "unknown core kind %S (expected %s)" s
             (String.concat ", " names))

  let braid_binary = function
    | Braid_exec | Cgooo -> true
    | In_order | Dep_steer | Ooo -> false

  let releases_early = function
    | Braid_exec -> true
    | In_order | Dep_steer | Ooo | Cgooo -> false
end

let kind_to_string = Core_kind.to_string

let predictor_to_string = function
  | Perceptron -> "perceptron"
  | Gshare -> "gshare"
  | Perfect_prediction -> "perfect"

let predictor_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "perceptron" -> Ok Perceptron
  | "gshare" -> Ok Gshare
  | "perfect" -> Ok Perfect_prediction
  | _ ->
      Error
        (Printf.sprintf
           "unknown predictor %S (expected perceptron, gshare or perfect)" s)

let preset_of_kind = function
  | In_order -> in_order_8wide
  | Dep_steer -> dep_steer_8wide
  | Ooo -> ooo_8wide
  | Braid_exec -> braid_8wide
  | Cgooo -> cgooo_8wide

let presets =
  [ in_order_8wide; dep_steer_8wide; braid_8wide; cgooo_8wide; ooo_8wide ]

(* Every field serializes to (and parses from) a canonical string; the
   class only decides how the value is rendered inside JSON. *)
type field_class = Jint | Jbool | Jstr

type field_spec = {
  f_name : string;
  f_class : field_class;
  get : t -> string;
  set : t -> string -> (t, string) result;
}

let int_field f_name get set =
  {
    f_name;
    f_class = Jint;
    get = (fun c -> string_of_int (get c));
    set =
      (fun c s ->
        match int_of_string_opt (String.trim s) with
        | Some v -> Ok (set c v)
        | None -> Error (Printf.sprintf "%s: expected an integer, got %S" f_name s));
  }

let bool_field f_name get set =
  {
    f_name;
    f_class = Jbool;
    get = (fun c -> if get c then "true" else "false");
    set =
      (fun c s ->
        match String.lowercase_ascii (String.trim s) with
        | "true" | "1" -> Ok (set c true)
        | "false" | "0" -> Ok (set c false)
        | _ -> Error (Printf.sprintf "%s: expected true or false, got %S" f_name s));
  }

let geometry_fields prefix get set =
  [
    int_field (prefix ^ ".size_bytes")
      (fun c -> (get c).size_bytes)
      (fun c v -> set c { (get c) with size_bytes = v });
    int_field (prefix ^ ".ways")
      (fun c -> (get c).ways)
      (fun c v -> set c { (get c) with ways = v });
    int_field (prefix ^ ".line_bytes")
      (fun c -> (get c).line_bytes)
      (fun c v -> set c { (get c) with line_bytes = v });
    int_field (prefix ^ ".latency")
      (fun c -> (get c).latency)
      (fun c v -> set c { (get c) with latency = v });
  ]

(* Declaration order is the canonical JSON field order; the digest hashes
   that document, so reordering this list invalidates result caches. *)
let fields : field_spec list =
  [
    {
      f_name = "kind";
      f_class = Jstr;
      get = (fun c -> Core_kind.to_string c.kind);
      set = (fun c s -> Result.map (fun kind -> { c with kind }) (Core_kind.of_string s));
    };
    int_field "fetch_width" (fun c -> c.fetch_width) (fun c v -> { c with fetch_width = v });
    int_field "max_branches_per_cycle"
      (fun c -> c.max_branches_per_cycle)
      (fun c v -> { c with max_branches_per_cycle = v });
    int_field "fetch_buffer" (fun c -> c.fetch_buffer) (fun c v -> { c with fetch_buffer = v });
    {
      f_name = "predictor";
      f_class = Jstr;
      get = (fun c -> predictor_to_string c.predictor);
      set =
        (fun c s ->
          Result.map (fun predictor -> { c with predictor }) (predictor_of_string s));
    };
    int_field "misprediction_penalty"
      (fun c -> c.misprediction_penalty)
      (fun c v -> { c with misprediction_penalty = v });
    int_field "alloc_width" (fun c -> c.alloc_width) (fun c v -> { c with alloc_width = v });
    int_field "rename_src_width"
      (fun c -> c.rename_src_width)
      (fun c v -> { c with rename_src_width = v });
    int_field "rename_dst_width"
      (fun c -> c.rename_dst_width)
      (fun c v -> { c with rename_dst_width = v });
    int_field "commit_width" (fun c -> c.commit_width) (fun c v -> { c with commit_width = v });
    int_field "ext_regs" (fun c -> c.ext_regs) (fun c v -> { c with ext_regs = v });
    int_field "inflight" (fun c -> c.inflight) (fun c v -> { c with inflight = v });
    int_field "clusters" (fun c -> c.clusters) (fun c v -> { c with clusters = v });
    int_field "cluster_entries"
      (fun c -> c.cluster_entries)
      (fun c v -> { c with cluster_entries = v });
    int_field "sched_window" (fun c -> c.sched_window) (fun c v -> { c with sched_window = v });
    int_field "fus_per_cluster"
      (fun c -> c.fus_per_cluster)
      (fun c v -> { c with fus_per_cluster = v });
    int_field "rf_read_ports"
      (fun c -> c.rf_read_ports)
      (fun c v -> { c with rf_read_ports = v });
    int_field "rf_write_ports"
      (fun c -> c.rf_write_ports)
      (fun c v -> { c with rf_write_ports = v });
    int_field "bypass_per_cycle"
      (fun c -> c.bypass_per_cycle)
      (fun c v -> { c with bypass_per_cycle = v });
    int_field "lsq_entries" (fun c -> c.lsq_entries) (fun c v -> { c with lsq_entries = v });
    bool_field "beu_out_of_order"
      (fun c -> c.beu_out_of_order)
      (fun c v -> { c with beu_out_of_order = v });
    int_field "beu_cluster_size"
      (fun c -> c.beu_cluster_size)
      (fun c v -> { c with beu_cluster_size = v });
    int_field "inter_cluster_latency"
      (fun c -> c.inter_cluster_latency)
      (fun c v -> { c with inter_cluster_latency = v });
    int_field "max_unresolved_branches"
      (fun c -> c.max_unresolved_branches)
      (fun c v -> { c with max_unresolved_branches = v });
    bool_field "model_wrong_path_fetch"
      (fun c -> c.model_wrong_path_fetch)
      (fun c v -> { c with model_wrong_path_fetch = v });
    int_field "btb_entries" (fun c -> c.btb_entries) (fun c v -> { c with btb_entries = v });
    int_field "block_windows"
      (fun c -> c.block_windows)
      (fun c v -> { c with block_windows = v });
    int_field "block_head_window"
      (fun c -> c.block_head_window)
      (fun c v -> { c with block_head_window = v });
  ]
  @ geometry_fields "l1i" (fun c -> c.mem.l1i) (fun c g -> { c with mem = { c.mem with l1i = g } })
  @ geometry_fields "l1d" (fun c -> c.mem.l1d) (fun c g -> { c with mem = { c.mem with l1d = g } })
  @ geometry_fields "l2" (fun c -> c.mem.l2) (fun c g -> { c with mem = { c.mem with l2 = g } })
  @ [
      int_field "memory_latency"
        (fun c -> c.mem.memory_latency)
        (fun c v -> { c with mem = { c.mem with memory_latency = v } });
      bool_field "perfect_icache"
        (fun c -> c.mem.perfect_icache)
        (fun c v -> { c with mem = { c.mem with perfect_icache = v } });
      bool_field "perfect_dcache"
        (fun c -> c.mem.perfect_dcache)
        (fun c v -> { c with mem = { c.mem with perfect_dcache = v } });
    ]

let sweepable_fields = List.map (fun f -> f.f_name) fields

let find_field name = List.find_opt (fun f -> String.equal f.f_name name) fields

let get c name =
  match find_field name with
  | Some f -> Ok (f.get c)
  | None -> Error (Printf.sprintf "unknown config field %S" name)

let override c kvs =
  List.fold_left
    (fun acc (k, v) ->
      Result.bind acc (fun c ->
          match find_field k with
          | Some f -> f.set c v
          | None ->
              Error
                (Printf.sprintf "unknown config field %S; sweepable fields: %s" k
                   (String.concat ", " sweepable_fields))))
    (Ok c) kvs

let to_json c =
  let field_json f =
    let v = f.get c in
    Json.escape_string f.f_name ^ ":"
    ^ (match f.f_class with Jint | Jbool -> v | Jstr -> Json.escape_string v)
  in
  "{"
  ^ String.concat ","
      ((Json.escape_string "name" ^ ":" ^ Json.escape_string c.name)
      :: List.map field_json fields)
  ^ "}"

let of_json s =
  match Json.parse s with
  | Error msg -> Error ("config JSON: " ^ msg)
  | Ok (Json.Obj members) ->
      let canonical_value name = function
        | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
            Ok (Printf.sprintf "%.0f" f)
        | Json.Bool b -> Ok (if b then "true" else "false")
        | Json.Str s -> Ok s
        | Json.Num _ | Json.Null | Json.Arr _ | Json.Obj _ ->
            Error (Printf.sprintf "%s: expected a number, boolean or string" name)
      in
      let keys = List.map fst members in
      let expected = "name" :: sweepable_fields in
      let missing = List.filter (fun k -> not (List.mem k keys)) expected in
      if missing <> [] then
        Error ("config JSON: missing field(s): " ^ String.concat ", " missing)
      else if List.length (List.sort_uniq String.compare keys) <> List.length keys
      then Error "config JSON: duplicate field"
      else
        (* field order in the document is irrelevant: each member routes
           through the same setter the override API uses *)
        List.fold_left
          (fun acc (k, v) ->
            Result.bind acc (fun c ->
                if String.equal k "name" then
                  match v with
                  | Json.Str n -> Ok { c with name = n }
                  | _ -> Error "name: expected a string"
                else
                  match find_field k with
                  | None -> Error (Printf.sprintf "config JSON: unknown field %S" k)
                  | Some f -> Result.bind (canonical_value k v) (f.set c)))
          (Ok ooo_8wide) members
  | Ok _ -> Error "config JSON: expected an object"

(* The digest identifies the machine, not its label: two identically
   parameterised configs under different names hash alike, so sweep result
   caches are shared across runs that name their points differently. *)
let digest c = Digest.to_hex (Digest.string (to_json { c with name = "" }))

let validate c =
  let problems = ref [] in
  let check ok msg = if not ok then problems := msg :: !problems in
  let positive name v =
    check (v >= 1) (Printf.sprintf "%s must be positive (got %d)" name v)
  in
  let non_negative name v =
    check (v >= 0) (Printf.sprintf "%s must be non-negative (got %d)" name v)
  in
  (* an instruction's register reads are renamed, and read from the
     external file, in one cycle: below three, a cmov never dispatches or
     never issues, and the run deadlocks *)
  let three_reads name v =
    check (v >= 3)
      (Printf.sprintf
         "%s must be at least 3 (got %d): a cmov reads three registers in one cycle"
         name v)
  in
  check (c.name <> "") "name must be non-empty";
  positive "fetch_width" c.fetch_width;
  positive "max_branches_per_cycle" c.max_branches_per_cycle;
  positive "fetch_buffer" c.fetch_buffer;
  non_negative "misprediction_penalty" c.misprediction_penalty;
  positive "alloc_width" c.alloc_width;
  three_reads "rename_src_width" c.rename_src_width;
  positive "rename_dst_width" c.rename_dst_width;
  positive "commit_width" c.commit_width;
  positive "ext_regs" c.ext_regs;
  positive "inflight" c.inflight;
  check (c.clusters >= 1)
    (Printf.sprintf "clusters must be positive (got %d): the machine needs at least one scheduler/BEU"
       c.clusters);
  positive "cluster_entries" c.cluster_entries;
  positive "sched_window" c.sched_window;
  check (c.sched_window <= c.cluster_entries)
    (Printf.sprintf "sched_window (%d) must not exceed cluster_entries (%d)"
       c.sched_window c.cluster_entries);
  positive "fus_per_cluster" c.fus_per_cluster;
  three_reads "rf_read_ports" c.rf_read_ports;
  positive "rf_write_ports" c.rf_write_ports;
  positive "bypass_per_cycle" c.bypass_per_cycle;
  positive "lsq_entries" c.lsq_entries;
  non_negative "beu_cluster_size" c.beu_cluster_size;
  non_negative "inter_cluster_latency" c.inter_cluster_latency;
  non_negative "max_unresolved_branches" c.max_unresolved_branches;
  non_negative "btb_entries" c.btb_entries;
  positive "block_windows" c.block_windows;
  positive "block_head_window" c.block_head_window;
  check (c.block_head_window <= c.cluster_entries)
    (Printf.sprintf
       "block_head_window (%d) must not exceed cluster_entries (%d)"
       c.block_head_window c.cluster_entries);
  let geometry prefix (g : cache_geometry) =
    positive (prefix ^ ".size_bytes") g.size_bytes;
    positive (prefix ^ ".ways") g.ways;
    positive (prefix ^ ".line_bytes") g.line_bytes;
    positive (prefix ^ ".latency") g.latency;
    check
      (g.size_bytes >= g.ways * g.line_bytes)
      (Printf.sprintf "%s.size_bytes (%d) must hold at least one line per way (%d x %d)"
         prefix g.size_bytes g.ways g.line_bytes)
  in
  geometry "l1i" c.mem.l1i;
  geometry "l1d" c.mem.l1d;
  geometry "l2" c.mem.l2;
  positive "memory_latency" c.mem.memory_latency;
  match List.rev !problems with
  | [] -> Ok c
  | ps -> Error (String.concat "; " ps)

(* ------------------------------------------------------------------ *)
(* CMP section. Deliberately *not* part of the per-core field table:   *)
(* adding fields there would change every config digest and invalidate *)
(* every sweep cache. A CMP point is a per-core config plus this       *)
(* record; the sweep cache keys the pair separately.                   *)
(* ------------------------------------------------------------------ *)

module Cmp = struct
  type t = {
    cores : int;  (* cores tiled over the shared L2 *)
    workloads : string list;  (* benchmark names, assigned round-robin *)
    l2 : cache_geometry;  (* the shared L2 *)
  }

  let default_l2 cores =
    (* scale the solo L2 capacity with the core count so per-core
       capacity pressure stays comparable across the sweep axis *)
    let solo = default_memory.l2 in
    { solo with size_bytes = solo.size_bytes * max 1 cores }

  let make ?(l2 = None) ~cores ~workloads () =
    {
      cores;
      workloads;
      l2 = (match l2 with Some g -> g | None -> default_l2 cores);
    }

  let validate t =
    let problems = ref [] in
    let check ok msg = if not ok then problems := msg :: !problems in
    check (t.cores >= 1)
      (Printf.sprintf "cmp.cores must be positive (got %d)" t.cores);
    check (t.cores <= 64)
      (Printf.sprintf "cmp.cores must be at most 64 (got %d): the directory \
                       tracks sharers in one word" t.cores);
    check (t.workloads <> []) "cmp.workloads must name at least one benchmark";
    check (t.l2.size_bytes >= t.l2.ways * t.l2.line_bytes)
      (Printf.sprintf
         "cmp.l2.size_bytes (%d) must hold at least one line per way (%d x %d)"
         t.l2.size_bytes t.l2.ways t.l2.line_bytes);
    check (t.l2.ways >= 1 && t.l2.line_bytes >= 1 && t.l2.latency >= 1
           && t.l2.size_bytes >= 1)
      "cmp.l2 geometry fields must be positive";
    match List.rev !problems with
    | [] -> Ok t
    | ps -> Error (String.concat "; " ps)

  (* workload of core [i]: round-robin over the named benchmarks *)
  let workload_of t i = List.nth t.workloads (i mod List.length t.workloads)
end

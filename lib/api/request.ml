module Config = Braid_uarch.Config

let schema = "braidsim-api/1"

type sample = {
  sm_interval : int;
  sm_max_k : int;
  sm_warmup : int;
  sm_seed : int;
  sm_verify : bool;  (** run-only: also run full simulation and report error *)
}

type run = {
  r_bench : string;
  r_seed : int;
  r_scale : int;
  r_core : Config.core_kind;
  r_width : int;
  r_sample : sample option;
}

type experiment = {
  e_ids : string list;  (** empty: every experiment *)
  e_scale : int;
  e_jobs : int;
  e_counters : bool;
  e_sample : sample option;
}

type sweep = {
  s_preset : Config.core_kind;
  s_axes : string list;  (** [Axis.of_spec] forms, e.g. ["ext_regs=8,16"] *)
  s_mode : Braid_dse.Grid.mode;
  s_benches : string list;  (** empty: all 26 *)
  s_seed : int;
  s_scale : int;
  s_jobs : int;
  s_cache_dir : string option;  (** server-side path *)
  s_sample : sample option;
}

type trace = {
  t_bench : string;
  t_seed : int;
  t_scale : int;
  t_core : Config.core_kind;
  t_width : int;
  t_from : int;
  t_cycles : int;
  t_buffer : int;
  t_chrome : bool;  (** also return the Chrome trace_event document *)
  t_counters : bool;
}

type fuzz = {
  f_count : int;
  f_seed : int;
  f_index : int;
  f_cores : Config.core_kind list;  (** empty: every core kind *)
  f_invariants : bool;
  f_shrink : bool;
}

type rv = {
  v_hex : string;  (** braid-rv/1 hex text of the image *)
  v_cores : Config.core_kind list;  (** empty: every core kind *)
  v_oracle : bool;
}

type cmp = {
  c_benches : string list;  (* assigned to cores round-robin; non-empty *)
  c_cores : int;
  c_seed : int;
  c_scale : int;
  c_core : Config.core_kind;
  c_width : int;
  c_l2 : Config.cache_geometry option;  (* shared L2; None: scaled default *)
  c_counters : bool;
}

type t =
  | Run of run
  | Experiment of experiment
  | Sweep of sweep
  | Trace of trace
  | Fuzz of fuzz
  | Rv of rv
  | Cmp of cmp
  | Status
  | Cancel of { request_id : int }
  | Shutdown

let op_name = function
  | Run _ -> "run"
  | Experiment _ -> "experiment"
  | Sweep _ -> "sweep"
  | Trace _ -> "trace"
  | Fuzz _ -> "fuzz"
  | Rv _ -> "rv"
  | Cmp _ -> "cmp"
  | Status -> "status"
  | Cancel _ -> "cancel"
  | Shutdown -> "shutdown"

(* --- JSON --- *)

let num n = Json.Num (float_of_int n)
let strs xs = Json.Arr (List.map (fun s -> Json.Str s) xs)
let core k = Json.Str (Config.Core_kind.to_string k)

(* an absent "sample" object means full simulation, so pre-sampling
   clients produce and parse the same documents as before *)
let sample_fields = function
  | None -> []
  | Some s ->
      [
        ( "sample",
          Json.Obj
            [
              ("interval", num s.sm_interval); ("max_k", num s.sm_max_k);
              ("warmup", num s.sm_warmup); ("seed", num s.sm_seed);
              ("verify", Json.Bool s.sm_verify);
            ] );
      ]

let to_tree t =
  let fields =
    match t with
    | Run r ->
        [
          ("bench", Json.Str r.r_bench); ("seed", num r.r_seed);
          ("scale", num r.r_scale); ("core", core r.r_core);
          ("width", num r.r_width);
        ]
        @ sample_fields r.r_sample
    | Experiment e ->
        [
          ("ids", strs e.e_ids); ("scale", num e.e_scale);
          ("jobs", num e.e_jobs); ("counters", Json.Bool e.e_counters);
        ]
        @ sample_fields e.e_sample
    | Sweep s ->
        [
          ("preset", core s.s_preset); ("axes", strs s.s_axes);
          ("mode", Json.Str (Braid_dse.Grid.mode_to_string s.s_mode));
          ("benches", strs s.s_benches); ("seed", num s.s_seed);
          ("scale", num s.s_scale); ("jobs", num s.s_jobs);
        ]
        @ (match s.s_cache_dir with
          | None -> []
          | Some d -> [ ("cache_dir", Json.Str d) ])
        @ sample_fields s.s_sample
    | Trace t ->
        [
          ("bench", Json.Str t.t_bench); ("seed", num t.t_seed);
          ("scale", num t.t_scale); ("core", core t.t_core);
          ("width", num t.t_width); ("from", num t.t_from);
          ("cycles", num t.t_cycles); ("buffer", num t.t_buffer);
          ("chrome", Json.Bool t.t_chrome);
          ("counters", Json.Bool t.t_counters);
        ]
    | Fuzz f ->
        [
          ("count", num f.f_count); ("seed", num f.f_seed);
          ("index", num f.f_index);
          ("cores", Json.Arr (List.map (fun k -> core k) f.f_cores));
          ("invariants", Json.Bool f.f_invariants);
          ("shrink", Json.Bool f.f_shrink);
        ]
    | Rv v ->
        [
          ("hex", Json.Str v.v_hex);
          ("cores", Json.Arr (List.map (fun k -> core k) v.v_cores));
          ("oracle", Json.Bool v.v_oracle);
        ]
    | Cmp c ->
        [
          ("benches", strs c.c_benches); ("cores", num c.c_cores);
          ("seed", num c.c_seed); ("scale", num c.c_scale);
          ("core", core c.c_core); ("width", num c.c_width);
        ]
        @ (match c.c_l2 with
          | None -> []
          | Some g ->
              [
                ( "l2",
                  Json.Obj
                    [
                      ("size_bytes", num g.Config.size_bytes);
                      ("ways", num g.Config.ways);
                      ("line_bytes", num g.Config.line_bytes);
                      ("latency", num g.Config.latency);
                    ] );
              ])
        @ [ ("counters", Json.Bool c.c_counters) ]
    | Status | Shutdown -> []
    | Cancel { request_id } -> [ ("id", num request_id) ]
  in
  Json.Obj (("schema", Json.Str schema) :: ("op", Json.Str (op_name t)) :: fields)

let to_json t = Json.to_string (to_tree t)

(* --- decoding --- *)

let ( let* ) = Result.bind

let field name conv doc =
  match conv name doc with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let bool_member name doc =
  match Json.member name doc with Some (Json.Bool b) -> Some b | _ -> None

let str_list_member name doc =
  match Json.member name doc with
  | Some (Json.Arr xs) ->
      List.fold_left
        (fun acc x ->
          match (acc, x) with
          | Some acc, Json.Str s -> Some (s :: acc)
          | _ -> None)
        (Some []) xs
      |> Option.map List.rev
  | _ -> None

let core_member name doc =
  match Json.str_member name doc with
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  | Some s -> Config.Core_kind.of_string s

(* absent is fine (full simulation); a present "sample" must be complete *)
let sample_member doc =
  match Json.member "sample" doc with
  | None -> Ok None
  | Some sub ->
      let* sm_interval = field "interval" Json.int_member sub in
      let* sm_max_k = field "max_k" Json.int_member sub in
      let* sm_warmup = field "warmup" Json.int_member sub in
      let* sm_seed = field "seed" Json.int_member sub in
      let* sm_verify = field "verify" bool_member sub in
      Ok (Some { sm_interval; sm_max_k; sm_warmup; sm_seed; sm_verify })

let of_tree doc =
  match Json.str_member "schema" doc with
  | None -> Error "missing \"schema\" field"
  | Some v when v <> schema ->
      Error
        (Printf.sprintf "unsupported schema %S (this endpoint speaks %s)" v
           schema)
  | Some _ -> (
      match Json.str_member "op" doc with
      | None -> Error "missing \"op\" field"
      | Some "run" ->
          let* r_bench = field "bench" Json.str_member doc in
          let* r_seed = field "seed" Json.int_member doc in
          let* r_scale = field "scale" Json.int_member doc in
          let* r_core = core_member "core" doc in
          let* r_width = field "width" Json.int_member doc in
          let* r_sample = sample_member doc in
          Ok (Run { r_bench; r_seed; r_scale; r_core; r_width; r_sample })
      | Some "experiment" ->
          let* e_ids = field "ids" str_list_member doc in
          let* e_scale = field "scale" Json.int_member doc in
          let* e_jobs = field "jobs" Json.int_member doc in
          let* e_counters = field "counters" bool_member doc in
          let* e_sample = sample_member doc in
          Ok (Experiment { e_ids; e_scale; e_jobs; e_counters; e_sample })
      | Some "sweep" ->
          let* s_preset = core_member "preset" doc in
          let* s_axes = field "axes" str_list_member doc in
          let* mode = field "mode" Json.str_member doc in
          let* s_mode = Braid_dse.Grid.mode_of_string mode in
          let* s_benches = field "benches" str_list_member doc in
          let* s_seed = field "seed" Json.int_member doc in
          let* s_scale = field "scale" Json.int_member doc in
          let* s_jobs = field "jobs" Json.int_member doc in
          let s_cache_dir = Json.str_member "cache_dir" doc in
          let* s_sample = sample_member doc in
          Ok
            (Sweep
               { s_preset; s_axes; s_mode; s_benches; s_seed; s_scale; s_jobs;
                 s_cache_dir; s_sample })
      | Some "trace" ->
          let* t_bench = field "bench" Json.str_member doc in
          let* t_seed = field "seed" Json.int_member doc in
          let* t_scale = field "scale" Json.int_member doc in
          let* t_core = core_member "core" doc in
          let* t_width = field "width" Json.int_member doc in
          let* t_from = field "from" Json.int_member doc in
          let* t_cycles = field "cycles" Json.int_member doc in
          let* t_buffer = field "buffer" Json.int_member doc in
          let* t_chrome = field "chrome" bool_member doc in
          let* t_counters = field "counters" bool_member doc in
          Ok
            (Trace
               { t_bench; t_seed; t_scale; t_core; t_width; t_from; t_cycles;
                 t_buffer; t_chrome; t_counters })
      | Some "fuzz" ->
          let* f_count = field "count" Json.int_member doc in
          let* f_seed = field "seed" Json.int_member doc in
          let* f_index = field "index" Json.int_member doc in
          let* names = field "cores" str_list_member doc in
          let* f_cores =
            List.fold_left
              (fun acc n ->
                let* acc = acc in
                let* k = Config.Core_kind.of_string n in
                Ok (k :: acc))
              (Ok []) names
            |> Result.map List.rev
          in
          let* f_invariants = field "invariants" bool_member doc in
          let* f_shrink = field "shrink" bool_member doc in
          Ok (Fuzz { f_count; f_seed; f_index; f_cores; f_invariants; f_shrink })
      | Some "rv" ->
          let* v_hex = field "hex" Json.str_member doc in
          let* names = field "cores" str_list_member doc in
          let* v_cores =
            List.fold_left
              (fun acc n ->
                let* acc = acc in
                let* k = Config.Core_kind.of_string n in
                Ok (k :: acc))
              (Ok []) names
            |> Result.map List.rev
          in
          let* v_oracle = field "oracle" bool_member doc in
          Ok (Rv { v_hex; v_cores; v_oracle })
      | Some "cmp" ->
          let* c_benches = field "benches" str_list_member doc in
          let* c_cores = field "cores" Json.int_member doc in
          let* c_seed = field "seed" Json.int_member doc in
          let* c_scale = field "scale" Json.int_member doc in
          let* c_core = core_member "core" doc in
          let* c_width = field "width" Json.int_member doc in
          (* absent is fine (the scaled default geometry); a present "l2"
             must be complete *)
          let* c_l2 =
            match Json.member "l2" doc with
            | None -> Ok None
            | Some sub ->
                let* size_bytes = field "size_bytes" Json.int_member sub in
                let* ways = field "ways" Json.int_member sub in
                let* line_bytes = field "line_bytes" Json.int_member sub in
                let* latency = field "latency" Json.int_member sub in
                Ok
                  (Some
                     { Config.size_bytes; ways; line_bytes; latency })
          in
          let* c_counters = field "counters" bool_member doc in
          Ok
            (Cmp
               { c_benches; c_cores; c_seed; c_scale; c_core; c_width; c_l2;
                 c_counters })
      | Some "status" -> Ok Status
      | Some "cancel" ->
          let* request_id = field "id" Json.int_member doc in
          Ok (Cancel { request_id })
      | Some "shutdown" -> Ok Shutdown
      | Some op -> Error (Printf.sprintf "unknown op %S" op))

let of_json s =
  match Json.parse s with
  | Error msg -> Error (Printf.sprintf "malformed request: %s" msg)
  | Ok doc -> of_tree doc

module E = Experiments

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* int/fp/overall average rows over the benchmark rows of a series; classes
   with no rows contribute no average row. *)
let average_rows (s : E.series) =
  if not s.E.averages then []
  else
    let make label keep =
      match
        List.filter_map
          (fun (r : E.row) -> if keep r.E.cls then Some r.E.values else None)
          s.E.rows
      with
      | [] -> None
      | vss ->
          let n = List.length s.E.columns in
          Some
            {
              E.label;
              cls = E.Config_row;
              values = List.init n (fun i -> mean (List.map (fun vs -> List.nth vs i) vss));
            }
    in
    List.filter_map
      (fun x -> x)
      [
        make "int avg" (fun c -> c = E.Int_row);
        make "fp avg" (fun c -> c = E.Fp_row);
        make "average" (fun c -> c = E.Int_row || c = E.Fp_row);
      ]

let render_series (s : E.series) =
  let fmt v = Printf.sprintf "%.*f" s.E.decimals v in
  let tail = average_rows s in
  let table =
    Render.table
      ~header:("" :: s.E.columns)
      ~rows:
        (List.map
           (fun (r : E.row) -> r.E.label :: List.map fmt r.E.values)
           (s.E.rows @ tail))
  in
  (* the paper presents most of these as bar charts: chart the average row *)
  let chart =
    match List.find_opt (fun (r : E.row) -> r.E.label = "average") tail with
    | Some r when List.for_all (fun v -> v >= 0.0) r.E.values ->
        Render.bar_chart ~title:"(averages)"
          (List.combine s.E.columns r.E.values)
    | Some _ | None -> ""
  in
  s.E.s_title ^ "\n" ^ table ^ chart

let render (r : E.result) =
  String.concat "\n" (List.map render_series r.E.series)
  ^ String.concat "" (List.map (fun n -> "\n" ^ n ^ "\n") r.E.notes)

let eq_rule = String.make 66 '='
let dash_rule = String.make 66 '-'

let render_full (r : E.result) =
  Printf.sprintf "%s\n%s — %s\npaper: %s\n%s\n%s" eq_rule r.E.id r.E.title
    r.E.paper_expectation dash_rule (render r)

let headline_summary results =
  let b = Buffer.create 1024 in
  Buffer.add_string b (eq_rule ^ "\n");
  Buffer.add_string b "Headline summary (measured)\n";
  Buffer.add_string b (dash_rule ^ "\n");
  List.iter
    (fun (r : E.result) ->
      let cells =
        String.concat "  "
          (List.map
             (fun (m : E.metric) -> Printf.sprintf "%s=%.3f" m.E.m_label m.E.value)
             r.E.headline)
      in
      Buffer.add_string b (Printf.sprintf "%-18s %s\n" r.E.id cells))
    results;
  Buffer.contents b

let render_counter_value = function
  | Braid_uarch.Core.Count n -> string_of_int n
  | Braid_uarch.Core.Hist { counts; observations; sum; _ } ->
      Printf.sprintf "n=%d sum=%d buckets=[%s]" observations sum
        (String.concat ";" (Array.to_list (Array.map string_of_int counts)))

let render_counters (counters : Experiments.counters) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (eq_rule ^ "\n");
  Buffer.add_string b
    "Observability counters (braid 8-wide, one run per benchmark)\n";
  Buffer.add_string b (dash_rule ^ "\n");
  List.iter
    (fun (bench, snap) ->
      Buffer.add_string b (bench ^ "\n");
      List.iter
        (fun (name, v) ->
          Buffer.add_string b
            (Printf.sprintf "  %-26s %s\n" name (render_counter_value v)))
        snap)
    counters;
  Buffer.contents b

(* --- JSON (the shared Braid_util.Json emitters; this module only
   assembles documents) --- *)

let json_string = Json.escape_string (* local shorthands over the shared emitters *)
let json_float = Json.float_lit
let json_list = Json.list_lit
let json_obj = Json.obj_lit

let json_of_row (r : E.row) =
  json_obj
    [
      ("label", json_string r.E.label);
      ( "class",
        json_string
          (match r.E.cls with
          | E.Int_row -> "int"
          | E.Fp_row -> "fp"
          | E.Config_row -> "config") );
      ("values", json_list json_float r.E.values);
    ]

let json_of_series (s : E.series) =
  json_obj
    [
      ("title", json_string s.E.s_title);
      ("columns", json_list json_string s.E.columns);
      ("rows", json_list json_of_row s.E.rows);
    ]

let json_of_metric (m : E.metric) =
  json_obj [ ("label", json_string m.E.m_label); ("value", json_float m.E.value) ]

let json_of_telemetry (t : Runner.telemetry) =
  json_obj
    [
      ("job", json_string t.Runner.job_label);
      ("wall_s", json_float t.Runner.wall_s);
      ("wall_ms", json_float (1000.0 *. t.Runner.wall_s));
      ("domain", string_of_int t.Runner.domain);
    ]

let json_of_result ((r : E.result), (stats : Runner.stats option)) =
  let timing =
    match stats with
    | None -> []
    | Some s ->
        [
          ("wall_s", json_float s.Runner.wall_s);
          ("jobs", json_list json_of_telemetry s.Runner.jobs);
        ]
  in
  json_obj
    ([
       ("id", json_string r.E.id);
       ("title", json_string r.E.title);
       ("paper_expectation", json_string r.E.paper_expectation);
       ("series", json_list json_of_series r.E.series);
       ("notes", json_list json_string r.E.notes);
       ("headline", json_list json_of_metric r.E.headline);
     ]
    @ timing)

let json_of_counter_value = function
  | Braid_uarch.Core.Count n -> string_of_int n
  | Braid_uarch.Core.Hist { bounds; counts; observations; sum } ->
      json_obj
        [
          ("bounds", json_list string_of_int (Array.to_list bounds));
          ("counts", json_list string_of_int (Array.to_list counts));
          ("observations", string_of_int observations);
          ("sum", string_of_int sum);
        ]

let json_of_counters (cs : Experiments.counters) =
  json_obj
    (List.map
       (fun (bench, snap) ->
         ( bench,
           json_obj
             (List.map (fun (n, v) -> (n, json_of_counter_value v)) snap) ))
       cs)

(* the "counters" key exists only when requested, so default output is
   byte-identical with or without the observability build *)
let to_json ?counters ~scale ~jobs items =
  json_obj
    ([
       ("scale", string_of_int scale);
       ("jobs", string_of_int jobs);
       ("experiments", json_list json_of_result items);
     ]
    @
    match counters with
    | None -> []
    | Some cs -> [ ("counters", json_of_counters cs) ])
  ^ "\n"

let write_json ?counters ~file ~scale ~jobs items =
  let doc = to_json ?counters ~scale ~jobs items in
  if file = "-" then print_string doc
  else begin
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc)
  end

module Json = Braid_util.Json

let default_label uid = Printf.sprintf "uid %d" uid

let track_name track =
  if track < 0 then "front-end" else Printf.sprintf "BEU %d" track

(* tids must be distinct per track; shift by one so the front end (-1)
   gets tid 0 and BEU k gets tid k+1, keeping every tid non-negative *)
let tid_of track = track + 1

let export ?(label = default_label) tracer =
  let evs = Tracer.events tracer in
  let b = Buffer.create 65536 in
  let first = ref true in
  let emit fields =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Json.escape_string k);
        Buffer.add_char b ':';
        Buffer.add_string b v)
      fields;
    Buffer.add_char b '}'
  in
  let str s = Json.escape_string s in
  let int n = string_of_int n in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  (* thread-name metadata: one named track per BEU/FU seen in the window *)
  let tracks =
    List.sort_uniq compare (List.map Tracer.track_of evs)
  in
  List.iter
    (fun track ->
      emit
        [
          ("name", str "thread_name");
          ("ph", str "M");
          ("pid", "0");
          ("tid", int (tid_of track));
          ("args", Printf.sprintf "{\"name\":%s}" (str (track_name track)));
        ])
    tracks;
  List.iter
    (fun ev ->
      match ev with
      | Tracer.Stage { cycle; uid; stage; track } ->
          emit
            [
              ("name", str (Tracer.stage_name stage));
              ("cat", str "stage");
              ("ph", str "i");
              ("s", str "t");
              ("ts", int cycle);
              ("pid", "0");
              ("tid", int (tid_of track));
              ("args", Printf.sprintf "{\"uid\":%d}" uid);
            ]
      | Tracer.Exec { uid; track; start; dur } ->
          emit
            [
              ("name", str (label uid));
              ("cat", str "exec");
              ("ph", str "X");
              ("ts", int start);
              ("dur", int (max 1 dur));
              ("pid", "0");
              ("tid", int (tid_of track));
              ("args", Printf.sprintf "{\"uid\":%d}" uid);
            ]
      | Tracer.Stall { cycle; track; reason } ->
          emit
            [
              ("name", str ("stall: " ^ reason));
              ("cat", str "stall");
              ("ph", str "X");
              ("ts", int cycle);
              ("dur", "1");
              ("pid", "0");
              ("tid", int (tid_of track));
              ("args", Printf.sprintf "{\"reason\":%s}" (str reason));
            ]
      | Tracer.Span { name; cat; track; start; dur } ->
          emit
            [
              ("name", str name);
              ("cat", str cat);
              ("ph", str "X");
              ("ts", int start);
              ("dur", int (max 1 dur));
              ("pid", "0");
              ("tid", int (tid_of track));
              ("args", "{}");
            ])
    evs;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let float_cell v = Printf.sprintf "%.3f" v
let pct v = Printf.sprintf "%.1f%%" (v *. 100.0)

let pad s width = s ^ String.make (max 0 (width - String.length s)) ' '

let table ~header ~rows =
  let arity = List.length header in
  List.iter
    (fun row ->
      if List.length row <> arity then invalid_arg "Render.table: ragged row")
    rows;
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    rows;
  let render_row row =
    String.concat "  " (List.mapi (fun i cell -> pad cell widths.(i)) row)
  in
  let rule =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let body = List.map render_row rows in
  String.concat "\n" ((render_row header :: rule :: body) @ [ "" ])

let bar_width = 50

let bar_chart ~title items =
  List.iter
    (fun (_, v) ->
      if v < 0.0 then invalid_arg "Render.bar_chart: negative value")
    items;
  let max_v = List.fold_left (fun acc (_, v) -> max acc v) 0.0 items in
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 items
  in
  let bar v =
    let n =
      if max_v <= 0.0 then 0
      else int_of_float (v /. max_v *. float_of_int bar_width +. 0.5)
    in
    String.make n '#'
  in
  let lines =
    List.map
      (fun (l, v) ->
        Printf.sprintf "  %s  %8.3f  %s" (pad l label_w) v (bar v))
      items
  in
  String.concat "\n" ((title :: lines) @ [ "" ])

module Config = Braid_uarch.Config

type t = { field : string; values : string list }

(* "cores" is a pseudo-axis: not a Config field (adding one there would
   change every config digest and invalidate every sweep cache) but a
   grid-level binding that tiles the point's machine over N cores sharing
   a coherent L2 (Braid_cmp). Grid.expand parses and bounds its values. *)
let pseudo_fields = [ "cores" ]

let make ~field values =
  if
    not
      (List.mem field Config.sweepable_fields || List.mem field pseudo_fields)
  then
    Error
      (Printf.sprintf "unknown sweep axis field %S; sweepable fields: %s" field
         (String.concat ", " (Config.sweepable_fields @ pseudo_fields)))
  else if values = [] then
    Error (Printf.sprintf "axis %s: at least one value is required" field)
  else if
    List.length (List.sort_uniq String.compare values) <> List.length values
  then Error (Printf.sprintf "axis %s: duplicate values" field)
  else Ok { field; values }

let ints ~field vs = make ~field (List.map string_of_int vs)

let of_spec spec =
  match String.index_opt spec '=' with
  | None ->
      Error
        (Printf.sprintf "malformed axis %S (expected FIELD=V1,V2,...)" spec)
  | Some i ->
      let field = String.trim (String.sub spec 0 i) in
      let values =
        String.sub spec (i + 1) (String.length spec - i - 1)
        |> String.split_on_char ','
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      make ~field values

let to_spec a = Printf.sprintf "%s=%s" a.field (String.concat "," a.values)

let pp fmt a = Format.pp_print_string fmt (to_spec a)

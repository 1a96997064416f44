(* Expected outputs, stored per workload seed in expected/seed-<n>.json.

   cold_run: cycles and instructions of every (bench, core) one-shot run.
   sweep:    cycles of every (point, bench) job of the sweep grid.
   sampled:  the sampled IPC of every (bench, core) sampled run, plus the
             full-simulation IPC of the same program, the reference that
             the sampling error is measured against.

   Floats are written with 17 significant digits, so they read back
   bit-for-bit. *)

type t = {
  seed : int;
  cold_run : (string, int * int) Hashtbl.t;  (** "bench/core" -> cycles, instructions *)
  sweep : (string, int) Hashtbl.t;  (** "point/bench" -> cycles *)
  sampled : (string, float * float) Hashtbl.t;  (** "bench/core" -> sampled IPC, full IPC *)
}

let empty seed =
  { seed; cold_run = Hashtbl.create 32; sweep = Hashtbl.create 32; sampled = Hashtbl.create 16 }

let path ~dir seed = Filename.concat dir (Printf.sprintf "seed-%d.json" seed)

(* The seeds with a stored file, ascending. *)
let stored ~dir =
  (try Sys.readdir dir with Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun n -> Scanf.sscanf_opt n "seed-%d.json%!" Fun.id)
  |> List.sort compare

let load ~dir seed =
  let p = path ~dir seed in
  if not (Sys.file_exists p) then None
  else
    let doc = Json.parse_exn (In_channel.with_open_bin p In_channel.input_all) in
    let t = empty seed in
    let entries key =
      match Json.member key doc with Some (Json.Arr l) -> l | _ -> []
    in
    let str k j = Option.get (Json.str_member k j) in
    let int k j = Option.get (Json.int_member k j) in
    let num k j = match Json.member k j with Some (Json.Num f) -> f | _ -> nan in
    List.iter
      (fun j ->
        Hashtbl.replace t.cold_run (str "key" j) (int "cycles" j, int "instructions" j))
      (entries "cold_run");
    List.iter (fun j -> Hashtbl.replace t.sweep (str "key" j) (int "cycles" j)) (entries "sweep");
    List.iter
      (fun j -> Hashtbl.replace t.sampled (str "key" j) (num "ipc" j, num "full_ipc" j))
      (entries "sampled");
    Some t

let save ~dir t =
  let sorted tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl)) in
  let f x = Printf.sprintf "%.17g" x in
  let section name render tbl =
    Printf.sprintf "  %S: [\n%s\n  ]" name
      (String.concat ",\n"
         (List.map (fun (k, v) -> "    {\"key\": " ^ Json.escape_string k ^ ", " ^ render v ^ "}") (sorted tbl)))
  in
  let body =
    String.concat ",\n"
      [
        Printf.sprintf "  \"seed\": %d" t.seed;
        section "cold_run" (fun (c, i) -> Printf.sprintf "\"cycles\": %d, \"instructions\": %d" c i) t.cold_run;
        section "sweep" (fun c -> Printf.sprintf "\"cycles\": %d" c) t.sweep;
        section "sampled" (fun (s, fl) -> Printf.sprintf "\"ipc\": %s, \"full_ipc\": %s" (f s) (f fl)) t.sampled;
      ]
  in
  Out_channel.with_open_bin (path ~dir t.seed) (fun oc -> output_string oc ("{\n" ^ body ^ "\n}\n"))

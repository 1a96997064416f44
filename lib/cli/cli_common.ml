module Config = Braid_uarch.Config
module Spec = Braid_workload.Spec

let core_kind_conv : Config.core_kind Cmdliner.Arg.conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Config.Core_kind.of_string s) in
  let print fmt k = Format.pp_print_string fmt (Config.Core_kind.to_string k) in
  Cmdliner.Arg.conv ~docv:"CORE" (parse, print)

let core_names = String.concat ", " Config.Core_kind.names

let core_arg =
  Cmdliner.Arg.(
    value
    & opt core_kind_conv Config.Braid_exec
    & info [ "core" ] ~docv:"CORE"
        ~doc:(Printf.sprintf "Execution core: %s." core_names))

let preset_conv : Config.t Cmdliner.Arg.conv =
  let parse s =
    Result.map Config.preset_of_kind
      (Result.map_error (fun m -> `Msg m) (Config.Core_kind.of_string s))
  in
  let print fmt (c : Config.t) =
    Format.pp_print_string fmt (Config.Core_kind.to_string c.Config.kind)
  in
  Cmdliner.Arg.conv ~docv:"PRESET" (parse, print)

let preset_arg =
  Cmdliner.Arg.(
    value
    & opt preset_conv Config.braid_8wide
    & info [ "preset" ] ~docv:"PRESET"
        ~doc:
          (Printf.sprintf "Base machine preset (Table 4): %s." core_names))

let seed_arg =
  let doc = "Workload generation seed." in
  Cmdliner.Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let positive_int : int Cmdliner.Arg.conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a positive integer" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Cmdliner.Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let scale_arg ~default =
  let doc =
    "Target dynamic instruction count of each benchmark run; must be \
     positive."
  in
  Cmdliner.Arg.(
    value & opt positive_int default & info [ "scale" ] ~docv:"N" ~doc)

let jobs_arg ~default =
  let doc =
    "Simulation jobs to run in parallel (one domain each); must be \
     positive. 1 runs serially on the calling domain. Output is identical \
     for every value."
  in
  Cmdliner.Arg.(value & opt positive_int default & info [ "jobs" ] ~docv:"N" ~doc)

let valid_bench_names () =
  String.concat "\n" (List.map (fun (p : Spec.profile) -> p.Spec.name) Spec.all)

let bench_conv : Spec.profile Cmdliner.Arg.conv =
  let parse s =
    match Spec.find s with
    | p -> Ok p
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown benchmark %S; valid names:\n%s" s
                (valid_bench_names ())))
  in
  let print fmt (p : Spec.profile) = Format.pp_print_string fmt p.Spec.name in
  Cmdliner.Arg.conv ~docv:"BENCH" (parse, print)

let bench_arg =
  let doc = "Benchmark name (one of the 26 SPEC CPU2000 stand-ins)." in
  Cmdliner.Arg.(
    required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH" ~doc)

let bench_name_conv : string Cmdliner.Arg.conv =
  let parse s =
    match Spec.find s with
    | (_ : Spec.profile) -> Ok s
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown benchmark %S; valid names:\n%s" s
                (valid_bench_names ())))
  in
  Cmdliner.Arg.conv ~docv:"BENCH" (parse, Format.pp_print_string)

module Exp = Braid_sim.Experiments

let experiment_id_conv : string Cmdliner.Arg.conv =
  let parse s =
    match Exp.find s with
    | (_ : Exp.t) -> Ok s
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown experiment %S; valid ids:\n%s" s
                (String.concat "\n"
                   (List.map (fun (e : Exp.t) -> e.Exp.id) Exp.all))))
  in
  Cmdliner.Arg.conv ~docv:"ID" (parse, Format.pp_print_string)

let only_arg =
  let doc = "Comma-separated experiment ids to run (default: all)." in
  Cmdliner.Arg.(
    value & opt (list experiment_id_conv) [] & info [ "only" ] ~docv:"IDS" ~doc)

let json_file_arg ~doc =
  Cmdliner.Arg.(
    value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

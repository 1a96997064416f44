(* Benchmark harness: regenerates every table and figure of the paper.

   It fans each experiment's per-benchmark simulation jobs out
   across a domain pool (--jobs), prints the same rows/series the paper
   reports, then a headline summary of paper-claim vs measured. Tables go to
   stdout and are byte-identical for every --jobs value; timing/telemetry
   goes to stderr. `--json FILE` additionally serializes the typed results.
   Timing braidsim itself is perfbench's job (`python3 perfbench/run.py`). *)

module E = Braid_sim.Experiments
module S = Braid_sim.Suite
module Runner = Braid_sim.Runner
module Report = Braid_sim.Report
module Cli = Braid_cli.Cli_common

let list_experiments () =
  print_endline "Experiments (paper tables and figures):";
  List.iter (fun (e : E.t) -> Printf.printf "  %s\n" e.E.id) E.all

let selected only =
  (* ids were already validated by Cli_common.experiment_id_conv *)
  match only with [] -> E.all | ids -> List.map E.find ids

let run_experiments ~scale ~jobs ~json only =
  let ctx = S.create_ctx () in
  let exps = selected only in
  let t0 = Unix.gettimeofday () in
  let results = Runner.run_experiments ~ctx ~jobs ~scale exps in
  let wall = Unix.gettimeofday () -. t0 in
  (* --json - claims stdout for the document; keep it valid JSON *)
  let quiet = json = Some "-" in
  List.iter
    (fun ((r : E.result), (st : Runner.stats)) ->
      if not quiet then begin
        print_string (Report.render_full r);
        print_newline ()
      end;
      Printf.eprintf "(%s: %.1fs of job time)\n%!" r.E.id st.Runner.wall_s)
    results;
  if not quiet then
    print_string (Report.headline_summary (List.map fst results));
  Printf.eprintf "(total: %.1fs wall-clock, %d jobs, %d domains recommended)\n%!"
    wall jobs
    (Runner.default_jobs ());
  Option.iter
    (fun file ->
      try
        Report.write_json ~file ~scale ~jobs
          (List.map (fun (r, st) -> (r, Some st)) results)
      with Sys_error msg ->
        Printf.eprintf "bench: cannot write JSON: %s\n" msg;
        exit 1)
    json

(* --- command line --- *)

let scale_arg = Cli.scale_arg ~default:S.default_scale

let only_arg = Cli.only_arg

let list_arg =
  let doc = "List experiment ids and exit." in
  Cmdliner.Arg.(value & flag & info [ "list" ] ~doc)

let jobs_arg = Cli.jobs_arg ~default:(Runner.default_jobs ())

let json_arg =
  Cli.json_file_arg
    ~doc:"Serialize typed results and per-job telemetry to $(docv) (- for stdout)."

let main scale only list jobs json =
  if list then list_experiments () else run_experiments ~scale ~jobs ~json only

let () =
  let info =
    Cmdliner.Cmd.info "bench" ~version:"1.0.0"
      ~doc:"Regenerate every table and figure of the paper's evaluation."
  in
  let term =
    Cmdliner.Term.(
      const main $ scale_arg $ only_arg $ list_arg $ jobs_arg $ json_arg)
  in
  exit (Cmdliner.Cmd.eval (Cmdliner.Cmd.v info term))

(* Shared between the one-shot subcommands and `braidsim client`: each
   simulation capability is a cmdliner term that builds a typed
   Braid_api.Request.t plus the local output options (where to put JSON
   documents), and one [deliver] renders the typed response payload with
   the exact bytes the historical inline implementations printed. Running
   a request locally or through a daemon differs only in who executes it. *)

module U = Braid_uarch
module W = Braid_workload
module Obs = Braid_obs
module Dse = Braid_dse
module E = Braid_sim.Experiments
module Cli = Braid_cli.Cli_common
module Api = Braid_api

type output = {
  o_json : string option;  (* experiment/sweep document destination *)
  o_chrome : string option;  (* trace Chrome-export destination *)
}

let no_output = { o_json = None; o_chrome = None }

type action =
  | Immediate of (unit -> unit)  (* purely local: listings, usage errors *)
  | Call of Api.Request.t * output

let fail msg =
  Printf.eprintf "braidsim: %s\n" msg;
  exit 1

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "braidsim.sock"

(* --- shared argument vocabulary --- *)

let scale_arg = Cli.scale_arg ~default:Braid_sim.Suite.default_scale

let width_arg =
  Cmdliner.Arg.(
    value & opt int 8 & info [ "width" ] ~docv:"W" ~doc:"Issue width (4, 8 or 16).")

(* --- sampling --- *)

(* Giving any --sample-* detail flag turns sampling on by itself; the
   bare --sample flag selects the defaults. Absent: full simulation. *)
let sample_term ~with_verify =
  let d = Braid_sample.Spec.default in
  let on_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "sample" ]
          ~doc:
            "Sampled simulation: fast-forward through the compiled \
             emulator, cluster the interval profile and simulate only \
             weighted representative intervals in detail. Orders of \
             magnitude faster at large --scale, at a small bounded IPC \
             error.")
  in
  let interval_arg =
    Cmdliner.Arg.(
      value
      & opt (some Cli.positive_int) None
      & info [ "sample-interval" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Instructions per profiling interval (default %d; implies \
                $(b,--sample))."
               d.Braid_sample.Spec.interval))
  in
  let k_arg =
    Cmdliner.Arg.(
      value
      & opt (some Cli.positive_int) None
      & info [ "sample-k" ] ~docv:"K"
          ~doc:
            (Printf.sprintf
               "Representative (cluster) budget (default %d; implies \
                $(b,--sample)). Raise it for very long runs."
               d.Braid_sample.Spec.max_k))
  in
  let warmup_arg =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "sample-warmup" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Detailed warm-up instructions simulated (but not counted) \
                before each interval (default %d; implies $(b,--sample))."
               d.Braid_sample.Spec.warmup))
  in
  let seed_arg =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "sample-seed" ] ~docv:"S"
          ~doc:
            (Printf.sprintf
               "Clustering seed (default %d; implies $(b,--sample)). Equal \
                seeds give identical interval choices."
               d.Braid_sample.Spec.seed))
  in
  let verify_term =
    if with_verify then
      Cmdliner.Arg.(
        value & flag
        & info [ "sample-verify" ]
            ~doc:
              "Also run the full simulation and report the sampled IPC's \
               relative error against it (implies $(b,--sample)).")
    else Cmdliner.Term.const false
  in
  let make on interval k warmup sseed verify =
    if
      not
        (on || verify || interval <> None || k <> None || warmup <> None
       || sseed <> None)
    then None
    else
      Some
        {
          Api.Request.sm_interval =
            Option.value interval ~default:d.Braid_sample.Spec.interval;
          sm_max_k = Option.value k ~default:d.Braid_sample.Spec.max_k;
          sm_warmup = Option.value warmup ~default:d.Braid_sample.Spec.warmup;
          sm_seed = Option.value sseed ~default:d.Braid_sample.Spec.seed;
          sm_verify = verify;
        }
  in
  Cmdliner.Term.(
    const make $ on_arg $ interval_arg $ k_arg $ warmup_arg $ seed_arg
    $ verify_term)

(* --- run --- *)

let run_term =
  let make (profile : W.Spec.profile) seed scale core width sample =
    Call
      ( Api.Request.Run
          {
            r_bench = profile.W.Spec.name;
            r_seed = seed;
            r_scale = scale;
            r_core = core;
            r_width = width;
            r_sample = sample;
          },
        no_output )
  in
  Cmdliner.Term.(
    const make $ Cli.bench_arg $ Cli.seed_arg $ scale_arg $ Cli.core_arg
    $ width_arg $ sample_term ~with_verify:true)

(* --- trace --- *)

let trace_term =
  let from_arg =
    Cmdliner.Arg.(
      value & opt int 0
      & info [ "from" ] ~docv:"CYCLE" ~doc:"First cycle of the timeline window.")
  in
  let cycles_arg =
    Cmdliner.Arg.(
      value & opt int 64
      & info [ "cycles" ] ~docv:"N" ~doc:"Width of the timeline window in cycles.")
  in
  let chrome_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also export the retained events as Chrome trace_event JSON to \
             $(docv) (load it in chrome://tracing or ui.perfetto.dev). The \
             document is parsed back before writing; a malformed export is \
             an error.")
  in
  let counters_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:"Dump the run's counters after the timeline.")
  in
  let buffer_arg =
    Cmdliner.Arg.(
      value
      & opt Cli.positive_int Obs.Tracer.default_capacity
      & info [ "buffer" ] ~docv:"N"
          ~doc:
            "Tracer ring-buffer capacity (events). When a run overflows it, \
             the oldest events are dropped and the retained window is the \
             end of the run.")
  in
  let make (profile : W.Spec.profile) seed scale core width from_cycle cycles
      chrome counters buffer =
    Call
      ( Api.Request.Trace
          {
            t_bench = profile.W.Spec.name;
            t_seed = seed;
            t_scale = scale;
            t_core = core;
            t_width = width;
            t_from = from_cycle;
            t_cycles = cycles;
            t_buffer = buffer;
            t_chrome = chrome <> None;
            t_counters = counters;
          },
        { no_output with o_chrome = chrome } )
  in
  Cmdliner.Term.(
    const make $ Cli.bench_arg $ Cli.seed_arg $ scale_arg $ Cli.core_arg
    $ width_arg $ from_arg $ cycles_arg $ chrome_arg $ counters_arg
    $ buffer_arg)

(* --- experiment --- *)

let experiment_term =
  let id_arg =
    Cmdliner.Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ID"
          ~doc:
            "Experiment id (e.g. fig13); `braidsim experiment list` to \
             enumerate. Omitted: run all (or the --only subset).")
  in
  let jobs_arg = Cli.jobs_arg ~default:1 in
  let json_arg =
    Cli.json_file_arg
      ~doc:"Serialize the typed results to $(docv) (- for stdout)."
  in
  let counters_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:
            "Append per-benchmark observability counters (one braid 8-wide \
             run per benchmark) to the report, and a \"counters\" object to \
             --json output.")
  in
  let make id only jobs json counters scale sample =
    if id = Some "list" then
      Immediate (fun () -> List.iter (fun (e : E.t) -> print_endline e.E.id) E.all)
    else
      let ids = (match id with Some i -> [ i ] | None -> []) @ only in
      Call
        ( Api.Request.Experiment
            {
              e_ids = ids;
              e_scale = scale;
              e_jobs = jobs;
              e_counters = counters;
              e_sample = sample;
            },
          { no_output with o_json = json } )
  in
  Cmdliner.Term.(
    const make $ id_arg $ Cli.only_arg $ jobs_arg $ json_arg $ counters_arg
    $ scale_arg $ sample_term ~with_verify:false)

(* --- sweep --- *)

let sweep_term =
  (* validate at parse time (a typo is a usage error) but keep the spec
     string: axes travel over the wire in Axis.of_spec form *)
  let axis_spec_conv : string Cmdliner.Arg.conv =
    let parse s =
      match Dse.Axis.of_spec s with
      | Ok (_ : Dse.Axis.t) -> Ok s
      | Error m -> Error (`Msg m)
    in
    Cmdliner.Arg.conv ~docv:"FIELD=V1,V2,..." (parse, Format.pp_print_string)
  in
  let axes_arg =
    Cmdliner.Arg.(
      value
      & opt_all axis_spec_conv []
      & info [ "axis" ] ~docv:"FIELD=V1,V2,..."
          ~doc:
            "A sweep axis: a sweepable Config field and its values \
             (repeatable). `braidsim sweep --list-fields` enumerates the \
             fields.")
  in
  let mode_arg =
    Cmdliner.Arg.(
      value
      & opt
          (enum
             [ ("cartesian", Dse.Grid.Cartesian);
               ("one-at-a-time", Dse.Grid.One_at_a_time) ])
          Dse.Grid.Cartesian
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Grid expansion: $(b,cartesian) (every combination) or \
             $(b,one-at-a-time) (the preset plus each single-field \
             deviation, the shape of Figs 5-12).")
  in
  let benches_arg =
    Cmdliner.Arg.(
      value
      & opt (list Cli.bench_name_conv) []
      & info [ "benches" ] ~docv:"NAMES"
          ~doc:"Comma-separated benchmark subset (default: all 26).")
  in
  let cache_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result cache: every simulation lands in \
             $(docv) and is reused by any later sweep that reaches the \
             same (config, trace) point, so interrupted sweeps resume \
             with zero recomputation. With `client`, the path is resolved \
             on the server.")
  in
  let resume_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume an interrupted sweep from --cache-dir (reusing cached \
             results is also the default whenever --cache-dir is given; \
             this flag only asserts the intent and errors without a cache \
             directory).")
  in
  let json_arg =
    Cli.json_file_arg
      ~doc:"Write the braidsim-sweep/1 document to $(docv) (- for stdout)."
  in
  let list_fields_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "list-fields" ] ~doc:"List the sweepable config fields and exit.")
  in
  let make (preset : U.Config.t) axes mode benches cache resume json
      list_fields seed scale jobs sample =
    if list_fields then
      Immediate (fun () -> List.iter print_endline U.Config.sweepable_fields)
    else if resume && cache = None then
      Immediate (fun () -> fail "--resume requires --cache-dir")
    else
      Call
        ( Api.Request.Sweep
            {
              s_preset = preset.U.Config.kind;
              s_axes = axes;
              s_mode = mode;
              s_benches = benches;
              s_seed = seed;
              s_scale = scale;
              s_jobs = jobs;
              s_cache_dir = cache;
              s_sample = sample;
            },
          { no_output with o_json = json } )
  in
  Cmdliner.Term.(
    const make $ Cli.preset_arg $ axes_arg $ mode_arg $ benches_arg
    $ cache_arg $ resume_arg $ json_arg $ list_fields_arg $ Cli.seed_arg
    $ scale_arg $ Cli.jobs_arg ~default:1 $ sample_term ~with_verify:false)

(* --- fuzz --- *)

let fuzz_term =
  let count_arg =
    Cmdliner.Arg.(
      value & opt Cli.positive_int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of random cases to check.")
  in
  let index_arg =
    Cmdliner.Arg.(
      value & opt int 0
      & info [ "index" ] ~docv:"I"
          ~doc:
            "First case index. Reproduce a printed failure exactly with \
             $(b,--seed S --index I --count 1).")
  in
  let core_opt_arg =
    Cmdliner.Arg.(
      value & opt (some Cli.core_kind_conv) None
      & info [ "core" ] ~docv:"CORE"
          ~doc:
            "Restrict the differential oracle to one core (default: every \
             core kind).")
  in
  let shrink_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily reduce each failing case to a minimal fragment list.")
  in
  let invariants_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "invariants" ]
          ~doc:
            "Also check microarchitectural invariants (commit order, \
             register-file occupancy, bypass legality, S/T/I/E bits) on \
             every run.")
  in
  let make count seed index core shrink invariants =
    Call
      ( Api.Request.Fuzz
          {
            f_count = count;
            f_seed = seed;
            f_index = index;
            f_cores = Option.to_list core;
            f_invariants = invariants;
            f_shrink = shrink;
          },
        no_output )
  in
  Cmdliner.Term.(
    const make $ count_arg $ Cli.seed_arg $ index_arg $ core_opt_arg
    $ shrink_arg $ invariants_arg)

(* --- cmp --- *)

let cmp_term =
  let benches_arg =
    Cmdliner.Arg.(
      non_empty
      & pos_all Cli.bench_name_conv []
      & info [] ~docv:"BENCH"
          ~doc:
            "Benchmark(s) to run, assigned to cores round-robin: one name \
             runs the same program on every core (homogeneous rate mode), \
             several make a multi-programmed mix.")
  in
  let cores_arg =
    Cmdliner.Arg.(
      value
      & opt Cli.positive_int 2
      & info [ "cores" ] ~docv:"N"
          ~doc:"Core count (1-64). Every core runs the same --core machine.")
  in
  let l2_kb_arg =
    Cmdliner.Arg.(
      value
      & opt (some Cli.positive_int) None
      & info [ "l2-kb" ] ~docv:"KB"
          ~doc:
            "Shared L2 capacity in KB (solo geometry otherwise scaled by \
             the core count).")
  in
  let counters_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:
            "Dump the observability counters after the summary; \
             each core's counters are namespaced core0., core1., ... and \
             the shared hierarchy's l2.*/coh.* are unprefixed.")
  in
  let make benches cores core width seed scale l2_kb counters =
    Call
      ( Api.Request.Cmp
          {
            c_benches = benches;
            c_cores = cores;
            c_seed = seed;
            c_scale = scale;
            c_core = core;
            c_width = width;
            c_l2 =
              Option.map
                (fun kb ->
                  let g = U.Config.default_memory.U.Config.l2 in
                  { g with U.Config.size_bytes = kb * 1024 })
                l2_kb;
            c_counters = counters;
          },
        no_output )
  in
  Cmdliner.Term.(
    const make $ benches_arg $ cores_arg $ Cli.core_arg $ width_arg
    $ Cli.seed_arg $ scale_arg $ l2_kb_arg $ counters_arg)

(* --- payload delivery --- *)

let write_file_or_stdout file doc =
  if file = "-" then print_string doc
  else
    try
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc doc)
    with Sys_error msg -> fail (Printf.sprintf "cannot write JSON: %s" msg)

(* --- rv --- *)

let read_binary_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

(* FILE is resolved client-side; only the canonical hex text travels over
   the wire, so one-shot and served runs see the identical image. *)
let load_rv_image spec =
  let prefix = "fixture:" in
  let plen = String.length prefix in
  if String.length spec > plen && String.sub spec 0 plen = prefix then
    let name = String.sub spec plen (String.length spec - plen) in
    match Braid_rv.Fixtures.image name with
    | Some img -> Ok img
    | None ->
        Error
          (Printf.sprintf "unknown fixture %S (have: %s)" name
             (String.concat ", " Braid_rv.Fixtures.names))
  else
    match read_binary_file spec with
    | Error msg -> Error msg
    | Ok bytes ->
        let name = Filename.remove_extension (Filename.basename spec) in
        if Filename.check_suffix spec ".s" || Filename.check_suffix spec ".S"
        then
          Result.map_error Braid_rv.Rv_asm.error_to_string
            (Braid_rv.Rv_asm.parse ~name bytes)
        else
          Result.map_error Braid_rv.Image.error_to_string
            (Braid_rv.Image.of_source ~name bytes)

let rv_term =
  let file_arg =
    Cmdliner.Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "An RV32IM program: assembly ($(b,.s)), a braid-rv/1 hex image, \
             an ELF32 executable or a flat binary (sniffed), or \
             $(b,fixture:NAME) for a built-in fixture.")
  in
  let cores_arg =
    Cmdliner.Arg.(
      value
      & opt_all Cli.core_kind_conv []
      & info [ "core" ] ~docv:"CORE"
          ~doc:
            "Core(s) to time the translated program on (repeatable; \
             default: every core kind).")
  in
  let oracle_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "oracle" ]
          ~doc:
            "Also run the frontend differential oracle: the RV reference \
             emulator against the translated IR, then both compilers and \
             every core. Exits 1 on divergence.")
  in
  let hex_out_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "hex-out" ] ~docv:"FILE"
          ~doc:
            "Do not simulate; write the loaded image as canonical \
             braid-rv/1 hex text to $(docv) (- for stdout). This is how \
             the committed examples/rv/ images are produced.")
  in
  let list_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "list-fixtures" ] ~doc:"List the built-in fixtures and exit.")
  in
  let make file cores oracle hex_out list_fixtures =
    if list_fixtures then
      Immediate (fun () -> List.iter print_endline Braid_rv.Fixtures.names)
    else
      match file with
      | None -> Immediate (fun () -> fail "missing FILE (or fixture:NAME)")
      | Some spec -> (
          match load_rv_image spec with
          | Error msg -> Immediate (fun () -> fail msg)
          | Ok img -> (
              match hex_out with
              | Some out ->
                  Immediate
                    (fun () ->
                      write_file_or_stdout out (Braid_rv.Image.to_hex img))
              | None ->
                  Call
                    ( Api.Request.Rv
                        {
                          v_hex = Braid_rv.Image.to_hex img;
                          v_cores = cores;
                          v_oracle = oracle;
                        },
                      no_output )))
  in
  Cmdliner.Term.(
    const make $ file_arg $ cores_arg $ oracle_arg $ hex_out_arg $ list_arg)

let render_status (st : Api.Response.status) =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "pool jobs  %d\n" st.Api.Response.pool_jobs;
  pf "queue      %d / %d\n" st.Api.Response.queue_depth
    st.Api.Response.max_queue;
  pf "active     %s\n"
    (match st.Api.Response.active with
    | None -> "idle"
    | Some (id, op) -> Printf.sprintf "#%d %s" id op);
  pf "served     %d (failed %d, cancelled %d)\n" st.Api.Response.served
    st.Api.Response.failed st.Api.Response.cancelled;
  if st.Api.Response.counters <> [] then begin
    pf "counters:\n";
    List.iter
      (fun (name, c) -> pf "  %-24s %d\n" name c)
      st.Api.Response.counters
  end;
  Buffer.contents b

(* Render a terminal payload exactly as the historical inline
   implementations printed it. [exit 1] on fuzz failures is preserved. *)
let deliver out (payload : Api.Response.payload) =
  match payload with
  | Api.Response.Run_done { text; _ } -> print_string text
  | Api.Response.Experiment_done { text; doc }
  | Api.Response.Sweep_done { text; doc; _ } ->
      (* --json - claims stdout for the document; keep it valid JSON *)
      if out.o_json <> Some "-" then print_string text;
      Option.iter (fun file -> write_file_or_stdout file doc) out.o_json
  | Api.Response.Trace_done { text; counters_text; chrome } ->
      print_string text;
      (match (chrome, out.o_chrome) with
      | Some c, Some file ->
          if file = "-" then print_string c.Api.Response.c_doc
          else begin
            write_file_or_stdout file c.Api.Response.c_doc;
            Printf.printf "\nwrote %s: %d events on %d tracks (validated)\n"
              file c.Api.Response.c_events c.Api.Response.c_tracks
          end
      | _, _ -> ());
      Option.iter print_string counters_text
  | Api.Response.Fuzz_done { text; failures; _ } ->
      print_string text;
      if failures > 0 then exit 1
  | Api.Response.Cmp_done { text; counters_text; _ } ->
      print_string text;
      Option.iter print_string counters_text
  | Api.Response.Rv_done { text; oracle_ok; _ } ->
      print_string text;
      if oracle_ok = Some false then exit 1
  | Api.Response.Status_report st -> print_string (render_status st)
  | Api.Response.Cancelled { cancelled_id } ->
      Printf.printf "cancelled request %d\n" cancelled_id
  | Api.Response.Shutdown_ack ->
      print_endline "shutdown acknowledged: server is draining"

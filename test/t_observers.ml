(* Observer goldens: the exact bytes a run reports about itself. The
   expected files under observers/ are the stdout of

     braidsim trace gzip --scale 2000 --from 100 --cycles 60 --counters
     braidsim cmp gzip mcf --cores 2 --scale 2000 --counters
     braidsim run gzip --scale 2000 --core braid
     braidsim run mcf --scale 12000 --core ooo --sample --sample-verify
     braidsim run gzip --scale 100000 --core braid --sample

   and the gzip/mcf members of the "counters" object of

     braidsim experiment --only table1 --scale 2000 --counters --json -

   experiment_headline.txt is the headline-summary section that closes the
   stdout of

     braidsim experiment --scale 1200 --jobs 2

   and that run's JSON document (braidsim experiment --scale 1200 --jobs 2
   --json -) is pinned by digest, so every table, note and headline of the
   whole suite is pinned. The Chrome export of the trace run is pinned by
   digest too. Counter order is part of the contract: a dump lists
   counters in the order scripts and diffs have always seen them. The
   three run reports pin every counter line of a full run, of a windowed
   and extrapolated sampled run with no clustering (5 intervals), and of
   a clustered one (8 representatives of 52 intervals). *)

module Api = Braid_api

(* from the test directory under [dune runtest], or from the repo root *)
let read_file name =
  let candidates =
    [ Filename.concat "observers" name; Filename.concat "test/observers" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> In_channel.with_open_bin path In_channel.input_all
  | None -> Alcotest.failf "observers/%s not found (cwd %s)" name (Sys.getcwd ())

let exec req =
  match Api.Exec.exec (Api.Exec.one_shot_env ()) req with
  | Ok payload -> payload
  | Error msg -> Alcotest.failf "request failed: %s" msg

(* --- trace: timeline, counter dump and Chrome export -------------------- *)

let chrome_digest = "af45e4214c7c7febfae70ed368012a07"

let test_trace () =
  match
    exec
      (Api.Request.Trace
         {
           t_bench = "gzip";
           t_seed = 1;
           t_scale = 2000;
           t_core = Braid_uarch.Config.Braid_exec;
           t_width = 8;
           t_from = 100;
           t_cycles = 60;
           t_buffer = Braid_obs.Tracer.default_capacity;
           t_chrome = true;
           t_counters = true;
         })
  with
  | Api.Response.Trace_done { text; counters_text = Some counters; chrome = Some c } ->
      Alcotest.(check string) "timeline and counters" (read_file "trace_gzip.txt")
        (text ^ counters);
      Alcotest.(check int) "chrome events" 16466 c.Api.Response.c_events;
      Alcotest.(check int) "chrome tracks" 9 c.Api.Response.c_tracks;
      Alcotest.(check string) "chrome digest" chrome_digest
        (Digest.to_hex (Digest.string c.Api.Response.c_doc))
  | _ -> Alcotest.fail "trace: unexpected payload"

(* --- cmp: shared-hierarchy and per-core dumps --------------------------- *)

let test_cmp () =
  match
    exec
      (Api.Request.Cmp
         {
           c_benches = [ "gzip"; "mcf" ];
           c_cores = 2;
           c_seed = 1;
           c_scale = 2000;
           c_core = Braid_uarch.Config.Braid_exec;
           c_width = 8;
           c_l2 = None;
           c_counters = true;
         })
  with
  | Api.Response.Cmp_done { text; counters_text = Some counters; _ } ->
      Alcotest.(check string) "summary and counters" (read_file "cmp_gzip_mcf.txt")
        (text ^ counters)
  | _ -> Alcotest.fail "cmp: unexpected payload"

(* --- run: full, sampled-and-verified and clustered sampled reports ------- *)

let run_report ~bench ~scale ~core ~sample ~verify =
  let d = Braid_sample.Spec.default in
  let sample =
    if not sample then None
    else
      Some
        {
          Api.Request.sm_interval = d.Braid_sample.Spec.interval;
          sm_max_k = d.Braid_sample.Spec.max_k;
          sm_warmup = d.Braid_sample.Spec.warmup;
          sm_seed = d.Braid_sample.Spec.seed;
          sm_verify = verify;
        }
  in
  match
    exec
      (Api.Request.Run
         {
           r_bench = bench;
           r_seed = 1;
           r_scale = scale;
           r_core = core;
           r_width = 8;
           r_sample = sample;
         })
  with
  | Api.Response.Run_done { text; _ } -> text
  | _ -> Alcotest.fail "run: unexpected payload"

let test_run () =
  let check file text = Alcotest.(check string) file (read_file file) text in
  check "run_gzip.txt"
    (run_report ~bench:"gzip" ~scale:2000 ~core:Braid_uarch.Config.Braid_exec
       ~sample:false ~verify:false);
  check "run_mcf_sample_verify.txt"
    (run_report ~bench:"mcf" ~scale:12000 ~core:Braid_uarch.Config.Ooo
       ~sample:true ~verify:true);
  check "run_gzip_sample.txt"
    (run_report ~bench:"gzip" ~scale:100000 ~core:Braid_uarch.Config.Braid_exec
       ~sample:true ~verify:false)

(* --- experiment --counters --json --------------------------------------- *)

let test_experiment_counters () =
  match
    exec
      (Api.Request.Experiment
         {
           e_ids = [ "table1" ];
           e_scale = 2000;
           e_jobs = 1;
           e_counters = true;
           e_sample = None;
         })
  with
  | Api.Response.Experiment_done { doc; _ } ->
      let counters =
        match Json.member "counters" (Json.parse_exn doc) with
        | Some c -> c
        | None -> Alcotest.fail "no counters object"
      in
      let pick bench =
        match Json.member bench counters with
        | Some v -> (bench, v)
        | None -> Alcotest.failf "no counters for %s" bench
      in
      let expected = Json.parse_exn (read_file "experiment_counters.json") in
      (* both sides re-serialised from parsed JSON: names, order and
         values must all agree *)
      Alcotest.(check string) "gzip and mcf counters" (Json.to_string expected)
        (Json.to_string (Json.Obj [ pick "gzip"; pick "mcf" ]))
  | _ -> Alcotest.fail "experiment: unexpected payload"

(* --- experiment: the whole suite's headline summary and JSON ------------- *)

let experiment_digest = "1cbb4a3b46732b6c1d257ee3f1ef22de"

(* the text from the rule line above "Headline summary" to the end *)
let headline_section text =
  let marker = "\nHeadline summary (measured)\n" in
  let rec find i =
    if i + String.length marker > String.length text then
      Alcotest.fail "no headline summary"
    else if String.sub text i (String.length marker) = marker then i
    else find (i + 1)
  in
  let start = String.rindex_from text (find 0 - 1) '\n' + 1 in
  String.sub text start (String.length text - start)

let test_experiment_suite () =
  match
    exec
      (Api.Request.Experiment
         { e_ids = []; e_scale = 1200; e_jobs = 2; e_counters = false; e_sample = None })
  with
  | Api.Response.Experiment_done { text; doc } ->
      Alcotest.(check string) "headline summary"
        (read_file "experiment_headline.txt") (headline_section text);
      Alcotest.(check string) "json digest" experiment_digest
        (Digest.to_hex (Digest.string doc))
  | _ -> Alcotest.fail "experiment: unexpected payload"

let suite =
  ( "observers",
    [
      Alcotest.test_case "trace timeline, counters and chrome" `Quick test_trace;
      Alcotest.test_case "cmp counters" `Quick test_cmp;
      Alcotest.test_case "run reports" `Quick test_run;
      Alcotest.test_case "experiment counters json" `Quick test_experiment_counters;
      Alcotest.test_case "experiment suite headline and json" `Slow
        test_experiment_suite;
    ] )

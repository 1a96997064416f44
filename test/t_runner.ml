(* Domain-pool runner: job ordering, exception propagation, failure
   isolation, and the headline guarantee — `--jobs N` and `--jobs 1` produce identical
   typed results and byte-identical rendered tables. *)

module E = Braid_sim.Experiments
module R = Braid_sim.Runner
module S = Braid_sim.Suite

let test_pool_ordering () =
  let work =
    Array.init 23 (fun i -> (Printf.sprintf "job-%d" i, fun () -> i * i))
  in
  let check ~jobs =
    let out = R.map_jobs ~jobs work in
    Alcotest.(check int) "all jobs ran" 23 (Array.length out);
    Array.iteri
      (fun i v -> Alcotest.(check int) "results in input order" (i * i) v)
      out
  in
  check ~jobs:1;
  check ~jobs:4;
  check ~jobs:64 (* more domains than jobs *)

let test_pool_exception () =
  let work =
    Array.init 8 (fun i ->
        ( Printf.sprintf "job-%d" i,
          fun () -> if i = 5 then failwith "boom" else i ))
  in
  let failing_label jobs =
    try
      ignore (R.map_jobs ~jobs work);
      Alcotest.fail "expected Job_failed"
    with R.Job_failed { label; error } ->
      Alcotest.(check bool) "original exception preserved" true
        (match error with Failure m -> String.equal m "boom" | _ -> false);
      label
  in
  Alcotest.(check string) "serial propagates the failing job" "job-5"
    (failing_label 1);
  Alcotest.(check string) "parallel propagates the failing job" "job-5"
    (failing_label 4)

(* A raising job rejects only its own slot: every other job in the batch
   still completes with its result (the pool is not poisoned). This is
   what lets the daemon turn one bad request into one Failed frame. *)
let test_pool_failure_isolation () =
  let work =
    Array.init 8 (fun i ->
        ( Printf.sprintf "job-%d" i,
          fun () -> if i = 2 || i = 5 then failwith "boom" else i * 10 ))
  in
  let check ~jobs =
    let out = R.try_map_jobs ~jobs work in
    Alcotest.(check int) "every slot has an outcome" 8 (Array.length out);
    Array.iteri
      (fun i outcome ->
        match outcome with
        | Ok v ->
            Alcotest.(check bool) "only healthy slots succeed" true
              (i <> 2 && i <> 5);
            Alcotest.(check int) "result in input order" (i * 10) v
        | Error (e : R.job_error) ->
            Alcotest.(check bool) "only raising slots fail" true
              (i = 2 || i = 5);
            Alcotest.(check string) "failing label"
              (Printf.sprintf "job-%d" i) e.R.e_label;
            Alcotest.(check bool) "original exception preserved" true
              (match e.R.error with
              | Failure m -> String.equal m "boom"
              | _ -> false))
      out
  in
  check ~jobs:1;
  check ~jobs:4

(* The determinism contract of the ISSUE: two experiments at scale 2000,
   serial vs 4-way parallel, byte-identical rendering and equal typed
   results. Fresh contexts on each side so nothing is shared. *)
let test_jobs_determinism () =
  let exps = [ E.find "fanout-lifetime"; E.find "table2" ] in
  let batch jobs =
    let ctx = S.create_ctx () in
    R.run_experiments ~ctx ~jobs ~scale:2000 exps
  in
  let serial = batch 1 and parallel = batch 4 in
  List.iter2
    (fun (a : E.result) (b : E.result) ->
      Alcotest.(check string)
        ("rendered identical: " ^ a.E.id)
        (Braid_sim.Report.render_full a)
        (Braid_sim.Report.render_full b);
      Alcotest.(check bool)
        ("typed results equal: " ^ a.E.id)
        true (a = b))
    serial parallel;
  Alcotest.(check string) "headline summary identical"
    (Braid_sim.Report.headline_summary serial)
    (Braid_sim.Report.headline_summary parallel)

(* Parallel runs also go through the shared memoised context safely. *)
let test_shared_ctx_parallel () =
  let ctx = S.create_ctx () in
  let exps = [ E.find "table2" ] in
  let a = R.run_experiments ~ctx ~jobs:4 ~scale:1200 exps in
  let b = R.run_experiments ~ctx ~jobs:4 ~scale:1200 exps in
  Alcotest.(check bool) "rerun on a warm context is identical" true (a = b)

let test_json_shape () =
  let ctx = S.create_ctx () in
  let results = R.run_experiments ~ctx ~jobs:2 ~scale:1200 [ E.find "table2" ] in
  let json = Braid_sim.Report.to_json ~scale:1200 ~jobs:2 results in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("json mentions " ^ fragment) true
        (Astring_contains.contains json fragment))
    [
      "\"id\":\"table2\""; "\"columns\""; "\"rows\""; "\"label\":\"gcc\"";
      "\"headline\"";
    ]

(* --scale is shared by every braidsim subcommand: a
   non-positive value is a usage error that names the flag, not a job
   failure deep inside the first simulation. *)
let test_scale_flag () =
  let cmd =
    Cmdliner.Cmd.v (Cmdliner.Cmd.info "t")
      (Braid_cli.Cli_common.scale_arg ~default:S.default_scale)
  in
  let eval args =
    let err = Buffer.create 64 in
    let fmt = Format.formatter_of_buffer err in
    let r =
      Cmdliner.Cmd.eval_value ~err:fmt ~argv:(Array.of_list ("t" :: args)) cmd
    in
    Format.pp_print_flush fmt ();
    (r, Buffer.contents err)
  in
  let accepts args n =
    match eval args with
    | Ok (`Ok v), _ -> Alcotest.(check int) (String.concat " " args) n v
    | _, msg -> Alcotest.failf "%s rejected: %s" (String.concat " " args) msg
  in
  let rejects args =
    match eval args with
    | Error `Parse, msg ->
        Alcotest.(check bool)
          (String.concat " " args ^ ": error names --scale")
          true
          (Astring_contains.contains msg "--scale")
    | _ -> Alcotest.failf "%s accepted" (String.concat " " args)
  in
  accepts [] S.default_scale;
  accepts [ "--scale"; "1" ] 1;
  rejects [ "--scale"; "0" ];
  rejects [ "--scale=-5" ]

let suite =
  ( "runner",
    [
      Alcotest.test_case "pool ordering" `Quick test_pool_ordering;
      Alcotest.test_case "pool exception propagation" `Quick test_pool_exception;
      Alcotest.test_case "pool failure isolation" `Quick
        test_pool_failure_isolation;
      Alcotest.test_case "jobs determinism" `Slow test_jobs_determinism;
      Alcotest.test_case "shared ctx parallel" `Slow test_shared_ctx_parallel;
      Alcotest.test_case "json shape" `Quick test_json_shape;
      Alcotest.test_case "scale flag rejects non-positive" `Quick
        test_scale_flag;
    ] )

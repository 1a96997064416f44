(* braidsim: command-line front end for the braid reproduction.

   Subcommands: list, stats, inspect, run, trace, experiment, sweep,
   disasm, complexity, fuzz, rv, serve, client.

   Every simulation subcommand builds a typed Braid_api.Request.t (see
   bin/ops.ml) and either executes it in-process (the one-shot path) or
   ships it to a `braidsim serve` daemon (`braidsim client ...`). Both
   paths run the same Braid_api.Exec engine and the same Ops.deliver
   renderer, so their output is byte-identical by construction. *)

open Braid_isa
module C = Braid_core
module U = Braid_uarch
module W = Braid_workload
module Sim = Braid_sim
module Cli = Braid_cli.Cli_common
module Api = Braid_api

let scale_arg = Ops.scale_arg
let seed_arg = Cli.seed_arg
let bench_arg = Cli.bench_arg

(* --- list --- *)

let list_cmd =
  let run () =
    Printf.printf "%-10s %-5s %s\n" "name" "class" "description";
    List.iter
      (fun (p : W.Spec.profile) ->
        Printf.printf "%-10s %-5s %s\n" p.W.Spec.name
          (match p.W.Spec.cls with W.Spec.Int_bench -> "int" | W.Spec.Fp_bench -> "fp")
          p.W.Spec.description)
      W.Spec.all
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "list" ~doc:"List the 26 benchmark programs.")
    Cmdliner.Term.(const run $ const ())

(* --- stats --- *)

let stats_cmd =
  let run (profile : W.Spec.profile) seed scale =
    let ctx = Sim.Suite.create_ctx () in
    let p = Sim.Suite.prepare ctx ~seed ~scale profile in
    (* the numbers the experiments of these ids report for this benchmark *)
    let payload id = (Sim.Experiments.find id).Sim.Experiments.bench_job ctx p in
    let rep = p.Sim.Suite.braid in
    let t1 = payload "table1" and t2 = payload "table2" and t3 = payload "table3" in
    let values = payload "fanout-lifetime" in
    Printf.printf "%s (%s)\n\n" profile.W.Spec.name profile.W.Spec.description;
    Printf.printf "static: %d blocks, %d instructions, %d braids\n"
      (Program.num_blocks p.Sim.Suite.virtual_ir)
      (Program.num_static_instrs rep.C.Transform.program)
      rep.C.Transform.braids;
    Printf.printf "splits: %d working-set, %d ordering; spills: %d values\n\n"
      rep.C.Transform.splits_working_set rep.C.Transform.splits_ordering
      rep.C.Transform.alloc.C.Extalloc.spilled;
    Printf.printf "Table 1  braids/block          %.2f (%.2f excl. singles)\n"
      t1.(0) t1.(1);
    Printf.printf "Table 2  size / width          %.2f / %.2f (excl. singles)\n"
      t2.(1) t2.(3);
    Printf.printf "Table 3  internals / in / out  %.2f / %.2f / %.2f (excl. singles)\n\n"
      t3.(1) t3.(3) t3.(5);
    Printf.printf "§1.1     values used once      %.1f%%\n" values.(0);
    Printf.printf "         used at most twice    %.1f%%\n" values.(1);
    Printf.printf "         produced unused       %.1f%%\n" values.(2);
    Printf.printf "         lifetime <= 32        %.1f%%\n" values.(3)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "stats"
       ~doc:"Braid and value statistics for one benchmark (Tables 1-3, §1.1).")
    Cmdliner.Term.(const run $ bench_arg $ seed_arg $ scale_arg)

(* --- inspect --- *)

let inspect_cmd =
  let block_arg =
    Cmdliner.Arg.(value & opt int 1 & info [ "block" ] ~docv:"ID" ~doc:"Block to print.")
  in
  let run profile seed scale block =
    let p = Sim.Suite.prepare (Sim.Suite.create_ctx ()) ~seed ~scale profile in
    print_string
      (Disasm.block_with_braids p.Sim.Suite.braid.C.Transform.program block)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "inspect" ~doc:"Disassemble one block braid by braid (Fig 2 view).")
    Cmdliner.Term.(const run $ bench_arg $ seed_arg $ scale_arg $ block_arg)

(* --- disasm --- *)

let disasm_cmd =
  let braided_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "braided" ] ~doc:"Disassemble the braid binary instead of the conventional one.")
  in
  let run profile seed scale braided =
    let p = Sim.Suite.prepare (Sim.Suite.create_ctx ()) ~seed ~scale profile in
    let binary =
      if braided then p.Sim.Suite.braid.C.Transform.program
      else p.Sim.Suite.conventional.C.Extalloc.program
    in
    print_string (Disasm.program_asm binary)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "disasm"
       ~doc:
         "Emit a benchmark's binary as parseable assembly (re-assemble it \
          with the Asm module).")
    Cmdliner.Term.(const run $ bench_arg $ seed_arg $ scale_arg $ braided_arg)

(* --- complexity --- *)

let complexity_cmd =
  let run () =
    List.iter
      (fun cfg -> print_endline (U.Complexity.describe cfg))
      U.Config.presets;
    let ooo = U.Complexity.of_config U.Config.ooo_8wide in
    let braid = U.Complexity.of_config U.Config.braid_8wide in
    let io = U.Complexity.of_config U.Config.in_order_8wide in
    Printf.printf
      "\nbraid total complexity is %.1fx the in-order design and 1/%.0f of the \
       out-of-order design\n"
      (U.Complexity.relative braid io)
      (U.Complexity.relative ooo braid)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "complexity"
       ~doc:"Static complexity indices of the five machines (§5.1).")
    Cmdliner.Term.(const run $ const ())

(* --- the one-shot simulation subcommands --- *)

let one_shot = function
  | Ops.Immediate f -> f ()
  | Ops.Call (request, out) -> (
      match Api.Exec.exec (Api.Exec.one_shot_env ()) request with
      | Ok payload -> Ops.deliver out payload
      | Error msg -> Ops.fail msg)

let run_cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "run" ~doc:"Simulate one benchmark on one machine configuration.")
    Cmdliner.Term.(const one_shot $ Ops.run_term)

let trace_cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "trace"
       ~doc:
         "Trace one benchmark run: ASCII pipeline timeline (F=fetch \
          D=dispatch I=issue X=complete C=commit), optional Chrome \
          trace_event export and counter dump.")
    Cmdliner.Term.(const one_shot $ Ops.trace_term)

let experiment_cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "experiment"
       ~doc:
         "Run one or more of the paper's tables/figures, optionally in \
          parallel across domains.")
    Cmdliner.Term.(const one_shot $ Ops.experiment_term)

let sweep_cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sweep"
       ~doc:
         "Design-space exploration: expand a preset and typed axes into a \
          validated configuration grid, simulate every (config, benchmark) \
          point across the domain pool with a persistent result cache, and \
          report the IPC-vs-complexity Pareto frontier.")
    Cmdliner.Term.(const one_shot $ Ops.sweep_term)

let rv_cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "rv"
       ~doc:
         "Run a real RV32IM program through the braid pass: decode, \
          translate to the internal IR, simulate on the timing cores, and \
          optionally check the frontend differential oracle.")
    Cmdliner.Term.(const one_shot $ Ops.rv_term)

let cmp_cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "cmp"
       ~doc:
         "Multicore (CMP) rate-mode simulation: N copies of one machine \
          over private L1s and a shared, MSI-coherent L2, reporting \
          per-core slowdown vs solo, aggregate IPC, weighted speedup and \
          coherence traffic.")
    Cmdliner.Term.(const one_shot $ Ops.cmp_term)

let fuzz_cmd =
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs through the emulator and \
          the timing cores, comparing committed state (plus optional \
          invariant monitoring).")
    Cmdliner.Term.(const one_shot $ Ops.fuzz_term)

(* --- serve / client --- *)

let socket_arg =
  Cmdliner.Arg.(
    value
    & opt string Ops.default_socket
    & info [ "socket" ] ~docv:"ADDR"
        ~doc:
          "Server endpoint: a Unix socket path, or $(b,host:port) for TCP.")

let parse_addr spec =
  match Api.Addr.of_spec spec with Ok a -> a | Error m -> Ops.fail m

(* One request over one connection; progress frames go to stderr so
   stdout stays byte-identical to the one-shot path. *)
let client_call ~spec ~progress request out =
  let addr = parse_addr spec in
  match Api.Client.connect addr with
  | Error msg -> Ops.fail msg
  | Ok conn ->
      let on_progress =
        if progress then
          Some
            (fun ~completed ~total ~label ->
              Printf.eprintf "[%d/%d] %s\n%!" completed total label)
        else None
      in
      let result = Api.Client.request ?on_progress conn request in
      Api.Client.close conn;
      (match result with
      | Ok payload -> Ops.deliver out payload
      | Error msg -> Ops.fail msg)

let client_group =
  let progress_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Print per-job progress frames to stderr as they stream in.")
  in
  let dispatch spec progress = function
    | Ops.Immediate f -> f ()
    | Ops.Call (request, out) -> client_call ~spec ~progress request out
  in
  let op name ~doc term =
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info name ~doc)
      Cmdliner.Term.(const dispatch $ socket_arg $ progress_arg $ term)
  in
  let control name ~doc request =
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info name ~doc)
      Cmdliner.Term.(
        const (fun spec ->
            client_call ~spec ~progress:false request Ops.no_output)
        $ socket_arg)
  in
  let cancel_cmd =
    let id_arg =
      Cmdliner.Arg.(
        required
        & pos 0 (some int) None
        & info [] ~docv:"ID" ~doc:"Server-assigned request id to withdraw.")
    in
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info "cancel" ~doc:"Withdraw a still-queued request.")
      Cmdliner.Term.(
        const (fun spec id ->
            client_call ~spec ~progress:false
              (Api.Request.Cancel { request_id = id })
              Ops.no_output)
        $ socket_arg $ id_arg)
  in
  Cmdliner.Cmd.group
    (Cmdliner.Cmd.info "client"
       ~doc:
         "Run simulation requests against a braidsim serve daemon. Every \
          op takes the same arguments as its one-shot counterpart and \
          prints the same bytes; only the executor differs.")
    [
      op "run" ~doc:"Simulate one benchmark on the server." Ops.run_term;
      op "trace" ~doc:"Trace one benchmark run on the server." Ops.trace_term;
      op "experiment" ~doc:"Run paper experiments on the server."
        Ops.experiment_term;
      op "sweep"
        ~doc:
          "Design-space sweep on the server (warm points answer straight \
           from its cache and memoised traces)."
        Ops.sweep_term;
      op "fuzz" ~doc:"Differential fuzzing on the server." Ops.fuzz_term;
      op "rv" ~doc:"Run an RV32IM program on the server." Ops.rv_term;
      op "cmp" ~doc:"Multicore rate-mode CMP simulation on the server."
        Ops.cmp_term;
      control "status" ~doc:"Print daemon status and counters."
        Api.Request.Status;
      control "shutdown"
        ~doc:"Gracefully stop the daemon (drains queued requests first)."
        Api.Request.Shutdown;
      cancel_cmd;
    ]

let serve_cmd =
  let jobs_arg = Cli.jobs_arg ~default:1 in
  let queue_arg =
    Cmdliner.Arg.(
      value
      & opt Cli.positive_int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: requests past it are refused, never \
             silently dropped.")
  in
  let run spec jobs queue =
    let addr = parse_addr spec in
    match Api.Server.create { Api.Server.addr; jobs; max_queue = queue } with
    | Error msg -> Ops.fail msg
    | Ok server ->
        (* Ctrl-C / TERM drain like a Shutdown request instead of
           killing in-flight jobs. *)
        let graceful = Sys.Signal_handle (fun _ -> Api.Server.stop server) in
        Sys.set_signal Sys.sigint graceful;
        Sys.set_signal Sys.sigterm graceful;
        Printf.printf "braidsim serve: listening on %s (jobs %d, queue %d)\n%!"
          (Api.Addr.to_string addr) jobs queue;
        Api.Server.run server
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "serve"
       ~doc:
         "Long-lived simulation daemon: accepts braidsim-api/1 requests \
          from braidsim client over a Unix or TCP socket, multiplexes \
          them onto one domain pool with per-client fairness, and answers \
          warm sweep points from its cache without simulating.")
    Cmdliner.Term.(const run $ socket_arg $ jobs_arg $ queue_arg)

let () =
  let info =
    Cmdliner.Cmd.info "braidsim" ~version:"1.0.0"
      ~doc:
        "Braid microarchitecture reproduction (Tseng & Patt, ISCA 2008): \
         compiler pass, cycle-level simulator, and the paper's experiments."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          [ list_cmd; stats_cmd; inspect_cmd; run_cmd; trace_cmd;
            experiment_cmd; sweep_cmd; cmp_cmd; disasm_cmd; complexity_cmd;
            fuzz_cmd; rv_cmd; serve_cmd; client_group ]))

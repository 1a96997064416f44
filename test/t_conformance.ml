(* Cross-core conformance: one shared battery, every registered core
   kind. The pluggable-core contract says a new execution paradigm may
   change *when* instructions issue but never *what* the machine
   computes, so each battery row is written once against
   [Config.Core_kind.all] and a future kind is conformance-tested the day
   it is registered:

   - commit-stream equality vs the emulator across all 26 benchmarks,
     with the invariant monitor armed and the instruction-flow counters
     balanced;
   - the RV32IM fixture differential oracle per kind;
   - serve-vs-one-shot byte identity of `run` through braidsim-api/1.

   The battery must also *fail* on a core that breaks the rules: the
   injection tests corrupt a CG-OoO block window's issue order (the
   monitor must name cgooo.block-order) and a cgooo commit stream (the
   oracle must name commit-order). *)

module C = Braid_core
module U = Braid_uarch
module Spec = Braid_workload.Spec
module Ck = Braid_check
module Rv = Braid_rv
module Obs = Braid_obs
module Api = Braid_api
module Req = Braid_api.Request
module Resp = Braid_api.Response

let kinds = U.Config.Core_kind.all
let kind_name = U.Config.Core_kind.to_string

let binary_for kind program =
  if U.Config.Core_kind.braid_binary kind then
    (C.Transform.run program).C.Transform.program
  else (C.Transform.conventional program).C.Extalloc.program

let count_of core name =
  match List.assoc_opt name (U.Core.counters core) with
  | Some (U.Core.Count n) -> n
  | _ -> 0

(* --- commit-stream equality + armed invariants, 26 benchmarks --- *)

let commit_stream_battery kind () =
  List.iter
    (fun (p : Spec.profile) ->
      let ctx = Printf.sprintf "%s/%s" p.Spec.name (kind_name kind) in
      let program, init_mem = Spec.generate p ~seed:1 ~scale:1200 in
      let binary = binary_for kind program in
      let out = Emulator.run ~max_steps:100_000 ~init_mem binary in
      Alcotest.(check bool) (ctx ^ ": emulator halted") true
        (out.Emulator.stop = Trace.Halted);
      let trace = Option.get out.Emulator.trace in
      let cfg = U.Config.preset_of_kind kind in
      let warm_data = List.map fst init_mem in
      let tracer = Obs.Tracer.create ~capacity:1024 () in
      let probe = U.Probe.create ~tracer ~invariants:true cfg in
      let core = U.Core.run ~probe ~warm_data cfg trace in
      let r = U.Core.result core in
      let n = Trace.length trace in
      Alcotest.(check int) (ctx ^ ": instructions") n r.U.Core.instructions;
      (* a live probe observes without perturbing: tracer and invariant
         checks on, the result equals the run with the probe off *)
      Alcotest.(check bool)
        (ctx ^ ": result with a live probe equals Probe.off")
        true
        (r = U.Core.result (U.Core.run ~warm_data cfg trace));
      Alcotest.(check bool) (ctx ^ ": probe traced") true
        (Obs.Tracer.length tracer > 0);
      (match U.Probe.violations probe with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s: %d invariant violation(s), first: %s" ctx
            (U.Probe.violation_count probe)
            (Format.asprintf "%a" U.Probe.pp_violation v));
      let committed = U.Probe.committed probe in
      Alcotest.(check int) (ctx ^ ": every instruction committed") n
        (Array.length committed);
      Alcotest.(check bool)
        (ctx ^ ": commit stream equals the emulator's order")
        true
        (Array.for_all
           (fun i -> committed.(i) = i)
           (Array.init (Array.length committed) Fun.id));
      (* instruction-flow conservation: everything dispatched issued,
         everything issued committed *)
      List.iter
        (fun c -> Alcotest.(check int) (ctx ^ ": " ^ c) n (count_of core c))
        [ "dispatch.instrs"; "issue.instrs"; "commit.instrs" ])
    Spec.all

(* --- RV32IM fixture differential oracle, per kind --- *)

(* every committed fixture except nbody (too large for per-kind timing
   runs; its golden run lives in t_rv) *)
let rv_fixtures =
  [ "fib"; "memcpy"; "sieve"; "dot"; "qsort"; "crc32"; "hello"; "divmix" ]

let rv_oracle_battery kind () =
  List.iter
    (fun name ->
      let img = Option.get (Rv.Fixtures.image name) in
      match Ck.Rv_oracle.check ~cores:[ kind ] img with
      | Error e -> Alcotest.fail (name ^ ": " ^ Rv.Translate.error_to_string e)
      | Ok rep ->
          if not (Ck.Rv_oracle.ok rep) then
            Alcotest.failf "%s/%s:\n%s" name (kind_name kind)
              (Ck.Rv_oracle.render rep))
    rv_fixtures

(* --- serve-vs-one-shot byte identity, per kind --- *)

let serve_battery kind () =
  let req =
    Req.Run
      {
        Req.r_bench = "gzip";
        r_seed = 7;
        r_scale = 600;
        r_core = kind;
        r_width = 8;
        r_sample = None;
      }
  in
  let one_shot =
    match Api.Exec.exec (Api.Exec.one_shot_env ()) req with
    | Ok (Resp.Run_done { text; sampled = None }) -> text
    | Ok _ -> Alcotest.fail "one-shot: unexpected payload"
    | Error m -> Alcotest.fail m
  in
  T_api.with_server ~jobs:1 (fun addr ->
      match T_api.rpc addr req with
      | Ok (Resp.Run_done { text; sampled = None }) ->
          Alcotest.(check string)
            (kind_name kind ^ ": served run byte-identical")
            one_shot text
      | Ok _ -> Alcotest.fail "served: unexpected payload"
      | Error m -> Alcotest.fail m)

(* --- fault injection: the battery must catch a rule-breaking core --- *)

let nop_event uid =
  {
    Trace.uid;
    pc = 4 * uid;
    block_id = 0;
    offset = uid;
    instr = Instr.make Op.Nop;
    deps = [||];
    addr = -1;
    is_load = false;
    is_store = false;
    is_cond_branch = false;
    is_jump = false;
    taken = false;
    latency = 1;
    writes_ext = false;
    writes_int = false;
    ext_src_reads = 0;
    int_src_reads = 0;
    braid_id = -1;
    braid_start = false;
    faulting = false;
  }

let test_block_order_injection () =
  (* uids 0..2 sit in window 0, uid 5 in window 1 *)
  let slots =
    {
      U.Probe.events = Array.init 6 nop_event;
      issue_cycle = Array.make 6 max_int;
      complete_cycle = Array.make 6 max_int;
      int_visible = Array.make 6 max_int;
      ext_visible = Array.make 6 max_int;
      beu = [| 0; 0; 0; -1; -1; 1 |];
    }
  in
  let issue probe ~cycle u =
    U.Probe.on_issue probe slots ~cycle ~lat:1 ~bypassed:false u
  in
  let probe = U.Probe.create U.Config.cgooo_8wide in
  issue probe ~cycle:0 0;
  issue probe ~cycle:1 2;
  (* a different window has its own order *)
  issue probe ~cycle:1 5;
  Alcotest.(check int) "in-order issues pass" 0 (U.Probe.violation_count probe);
  (* uid 1 after uid 2 from the same window: corrupted in-block order *)
  issue probe ~cycle:2 1;
  (match U.Probe.violations probe with
  | [ v ] ->
      Alcotest.(check string) "invariant name" "cgooo.block-order"
        v.U.Probe.invariant;
      Alcotest.(check int) "offending uid" 1 v.U.Probe.uid
  | vs ->
      Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  (* the braid core has no block windows: same sequence, monitor silent *)
  let braid_probe = U.Probe.create U.Config.braid_8wide in
  issue braid_probe ~cycle:0 2;
  issue braid_probe ~cycle:1 1;
  Alcotest.(check int) "braid core unaffected" 0
    (U.Probe.violation_count braid_probe)

let swap_first_two a =
  let a = Array.copy a in
  if Array.length a >= 2 then begin
    let t = a.(0) in
    a.(0) <- a.(1);
    a.(1) <- t
  end;
  a

let test_oracle_catches_cgooo_commit_corruption () =
  let case = Ck.Gen.generate ~seed:5 ~index:2 in
  let program, init_mem = Ck.Gen.build case in
  let report =
    Ck.Oracle.check ~invariants:false ~cores:[ U.Config.Cgooo ]
      ~inject_commit:swap_first_two program ~init_mem
  in
  Alcotest.(check bool) "corrupted stream rejected" false (Ck.Oracle.ok report);
  let ks =
    List.map
      (fun (d : Ck.Oracle.divergence) -> d.Ck.Oracle.kind)
      report.Ck.Oracle.divergences
  in
  Alcotest.(check bool) "commit-order divergence reported" true
    (List.mem "commit-order" ks);
  (* the uncorrupted stream of the very same case passes *)
  Alcotest.(check bool) "clean oracle accepts" true
    (Ck.Oracle.ok (Ck.Oracle.check ~cores:[ U.Config.Cgooo ] program ~init_mem))

(* --- negative space: the new core survives a deep fuzz run --- *)

let test_fuzz_cgooo_clean () =
  let outcome =
    Ck.Fuzz.run ~invariants:true ~cores:[ U.Config.Cgooo ] ~count:500 ~seed:11
      ()
  in
  Alcotest.(check int) "tested" 500 outcome.Ck.Fuzz.tested;
  Alcotest.(check int) "no failures" 0 (List.length outcome.Ck.Fuzz.failures)

let battery =
  [
    ("commit-stream", commit_stream_battery);
    ("rv-oracle", rv_oracle_battery);
    ("serve-vs-one-shot", serve_battery);
  ]

let suite =
  ( "conformance",
    List.concat_map
      (fun (bname, f) ->
        List.map
          (fun kind ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s" bname (kind_name kind))
              `Slow (f kind))
          kinds)
      battery
    @ [
        Alcotest.test_case "injected block-order corruption caught" `Quick
          test_block_order_injection;
        Alcotest.test_case "injected cgooo commit corruption caught" `Quick
          test_oracle_catches_cgooo_commit_corruption;
        Alcotest.test_case "fuzz 500 cases clean on cgooo" `Slow
          test_fuzz_cgooo_clean;
      ] )

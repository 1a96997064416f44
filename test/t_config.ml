(* The first-class configuration API: JSON round-trips, content digests,
   validation, and the string-level override primitive that backs
   `braidsim sweep --axis`. *)

module Config = Braid_uarch.Config


let test_json_roundtrip () =
  List.iter
    (fun (c : Config.t) ->
      match Config.of_json (Config.to_json c) with
      | Ok c' ->
          Alcotest.(check bool)
            ("round-trip " ^ c.Config.name)
            true (c = c')
      | Error msg -> Alcotest.fail (c.Config.name ^ ": " ^ msg))
    Config.presets

(* of_json accepts fields in any order, and the digest is computed from the
   canonical rendering, so a reordered document parses back to a config
   with an unchanged digest. *)
let test_digest_field_order () =
  let c = Config.braid_8wide in
  let reordered =
    match Json.parse_exn (Config.to_json c) with
    | Json.Obj members -> Json.to_string (Json.Obj (List.rev members))
    | _ -> Alcotest.fail "to_json did not produce an object"
  in
  match Config.of_json reordered with
  | Ok c' ->
      Alcotest.(check bool) "reordered document parses equal" true (c = c');
      Alcotest.(check string) "digest independent of field order"
        (Config.digest c) (Config.digest c')
  | Error msg -> Alcotest.fail msg

let test_digest_semantics () =
  let c = Config.braid_8wide in
  Alcotest.(check string) "digest ignores the name"
    (Config.digest c)
    (Config.digest { c with Config.name = "something-else" });
  let bumped =
    match Config.override c [ ("ext_regs", "16") ] with
    | Ok c' -> c'
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "digest changes with any parameter" true
    (Config.digest c <> Config.digest bumped);
  Alcotest.(check bool) "digest is hex" true
    (String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       (Config.digest c))

let test_presets_validate () =
  List.iter
    (fun (c : Config.t) ->
      match Config.validate c with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (c.Config.name ^ " rejected: " ^ msg))
    Config.presets

let rejects what kvs expected_fragments =
  let c =
    match Config.override Config.braid_8wide kvs with
    | Ok c -> c
    | Error msg -> Alcotest.fail (what ^ ": override failed: " ^ msg)
  in
  match Config.validate c with
  | Ok _ -> Alcotest.fail (what ^ ": expected validation to fail")
  | Error msg ->
      List.iter
        (fun fragment ->
          Alcotest.(check bool)
            (what ^ " error mentions " ^ fragment)
            true
            (Astring_contains.contains msg fragment))
        expected_fragments

let test_validate_rejections () =
  rejects "zero clusters" [ ("clusters", "0") ] [ "clusters" ];
  rejects "zero fetch width" [ ("fetch_width", "0") ] [ "fetch_width" ];
  rejects "zero external registers" [ ("ext_regs", "0") ] [ "ext_regs" ];
  rejects "window beyond FIFO"
    [ ("sched_window", "64"); ("cluster_entries", "32") ]
    [ "sched_window" ];
  rejects "zero memory latency" [ ("memory_latency", "0") ] [ "memory_latency" ];
  (* a cmov reads three registers: fewer read ports or rename source
     slots deadlock the run instead of slowing it *)
  rejects "two read ports" [ ("rf_read_ports", "2") ] [ "rf_read_ports"; "at least 3" ];
  rejects "two rename sources" [ ("rename_src_width", "2") ]
    [ "rename_src_width"; "at least 3" ];
  rejects "degenerate cache geometry"
    [ ("l1d.size_bytes", "64"); ("l1d.ways", "4"); ("l1d.line_bytes", "64") ]
    [ "l1d" ];
  (* the error aggregates every violated rule, not just the first *)
  rejects "aggregated errors"
    [ ("clusters", "0"); ("fetch_width", "0") ]
    [ "clusters"; "fetch_width" ]

(* Overriding any sweepable field with its current rendering is the
   identity, proving get/override agree on every field's syntax. *)
let test_override_every_field () =
  List.iter
    (fun (c : Config.t) ->
      List.iter
        (fun field ->
          match Config.get c field with
          | Error msg -> Alcotest.fail (field ^ ": get failed: " ^ msg)
          | Ok v -> (
              match Config.override c [ (field, v) ] with
              | Error msg -> Alcotest.fail (field ^ ": override failed: " ^ msg)
              | Ok c' ->
                  Alcotest.(check bool)
                    (c.Config.name ^ ": self-override of " ^ field
                   ^ " is the identity")
                    true (c = c')))
        Config.sweepable_fields)
    Config.presets

let test_override_values () =
  let ok kvs =
    match Config.override Config.braid_8wide kvs with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  let c = ok [ ("kind", "ooo"); ("predictor", "gshare") ] in
  Alcotest.(check bool) "kind parsed" true (c.Config.kind = Config.Ooo);
  Alcotest.(check bool) "predictor parsed" true
    (c.Config.predictor = Config.Gshare);
  let c = ok [ ("beu_out_of_order", "true"); ("l1d.latency", "7") ] in
  Alcotest.(check bool) "bool parsed" true c.Config.beu_out_of_order;
  Alcotest.(check int) "nested memory field parsed" 7
    c.Config.mem.Config.l1d.Config.latency;
  Alcotest.(check int) "other geometry fields untouched"
    Config.braid_8wide.Config.mem.Config.l1d.Config.size_bytes
    c.Config.mem.Config.l1d.Config.size_bytes

let test_override_errors () =
  (match Config.override Config.braid_8wide [ ("no_such_field", "1") ] with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error msg ->
      List.iter
        (fun fragment ->
          Alcotest.(check bool) ("unknown-field error lists " ^ fragment) true
            (Astring_contains.contains msg fragment))
        [ "no_such_field"; "ext_regs"; "sched_window"; "l1d.latency" ]);
  (match Config.override Config.braid_8wide [ ("ext_regs", "many") ] with
  | Ok _ -> Alcotest.fail "bad integer accepted"
  | Error msg ->
      Alcotest.(check bool) "bad-value error names the field" true
        (Astring_contains.contains msg "ext_regs"));
  match Config.override Config.braid_8wide [ ("kind", "vliw") ] with
  | Ok _ -> Alcotest.fail "bad kind accepted"
  | Error msg ->
      Alcotest.(check bool) "bad-kind error names the kinds" true
        (Astring_contains.contains msg "braid")

let test_of_json_errors () =
  (match Config.of_json "[1,2]" with
  | Ok _ -> Alcotest.fail "non-object accepted"
  | Error _ -> ());
  (match Config.of_json {|{"name":"x"}|} with
  | Ok _ -> Alcotest.fail "missing fields accepted"
  | Error msg ->
      Alcotest.(check bool) "missing-field error names one" true
        (Astring_contains.contains msg "kind"));
  match Config.of_json {|{"bogus":1}|} with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error _ -> ()

let test_kind_strings () =
  List.iter
    (fun k ->
      match Config.Core_kind.of_string (Config.kind_to_string k) with
      | Ok k' -> Alcotest.(check bool) "kind round-trips" true (k = k')
      | Error msg -> Alcotest.fail msg)
    [
      Config.In_order;
      Config.Dep_steer;
      Config.Ooo;
      Config.Braid_exec;
      Config.Cgooo;
    ];
  List.iter
    (fun p ->
      match Config.predictor_of_string (Config.predictor_to_string p) with
      | Ok p' -> Alcotest.(check bool) "predictor round-trips" true (p = p')
      | Error msg -> Alcotest.fail msg)
    [ Config.Perceptron; Config.Gshare; Config.Perfect_prediction ]

let suite =
  ( "config-api",
    [
      Alcotest.test_case "json round-trip (all presets)" `Quick
        test_json_roundtrip;
      Alcotest.test_case "digest stable under field reorder" `Quick
        test_digest_field_order;
      Alcotest.test_case "digest semantics" `Quick test_digest_semantics;
      Alcotest.test_case "presets validate" `Quick test_presets_validate;
      Alcotest.test_case "validate rejections" `Quick test_validate_rejections;
      Alcotest.test_case "override every sweepable field" `Quick
        test_override_every_field;
      Alcotest.test_case "override typed values" `Quick test_override_values;
      Alcotest.test_case "override errors" `Quick test_override_errors;
      Alcotest.test_case "of_json errors" `Quick test_of_json_errors;
      Alcotest.test_case "kind/predictor strings" `Quick test_kind_strings;
    ] )

(* Entry point aggregating every test suite. *)

let () =
  Alcotest.run "braid"
    [
      T_prng.suite;
      T_stats.suite;
      T_ring.suite;
      T_isa.suite;
      T_emulator.suite;
      T_workload.suite;
      T_braid.suite;
      T_transform.suite;
      T_uarch.suite;
      T_obs.suite;
      T_observers.suite;
      T_statspass.suite;
      T_extensions.suite;
      T_properties.suite;
      T_timing.suite;
      T_roundtrip.suite;
      T_runner.suite;
      T_calq.suite;
      T_golden.suite;
      T_config.suite;
      T_dse.suite;
      T_sample.suite;
      T_check.suite;
      T_cmp.suite;
      T_rv.suite;
      T_api.suite;
      T_conformance.suite;
    ]

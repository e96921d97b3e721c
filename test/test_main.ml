(* Aggregates every suite; `dune runtest` runs this executable. *)

let () =
  Alcotest.run "robust_read"
    [
      Suite_prng.suite;
      Suite_heap.suite;
      Suite_engine.suite;
      Suite_sim_misc.suite;
      Suite_engine_props.suite;
      Suite_stats.suite;
      Suite_quorum.suite;
      Suite_histories.suite;
      Suite_core_types.suite;
      Suite_safe_protocol.suite;
      Suite_regular_protocol.suite;
      Suite_gc.suite;
      Suite_scenario.suite;
      Suite_fault.suite;
      Suite_chaos.suite;
      Suite_scenario_edge.suite;
      Suite_baselines.suite;
      Suite_fast_safe.suite;
      Suite_server_centric.suite;
      Suite_lower_bound.suite;
      Suite_lemmas.suite;
      Suite_explorer.suite;
      Suite_random_walks.suite;
      Suite_workload.suite;
      Suite_fuzz.suite;
      Suite_conformance.suite;
      Suite_obs.suite;
      Suite_golden_trace.suite;
      Suite_span_conformance.suite;
      Suite_parallel.suite;
      Suite_net_codec.suite;
      Suite_net.suite;
      Suite_chaos_live.suite;
      Suite_fast_read.suite;
      Suite_scaleout.suite;
      Suite_keyspace.suite;
      Suite_coalesce.suite;
      Suite_record.suite;
      Suite_reader_oracle.suite;
      Suite_alloc.suite;
      Suite_driver.suite;
      Suite_object_host.suite;
    ]

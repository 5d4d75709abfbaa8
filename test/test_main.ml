(* Aggregates every library's alcotest suite into one runner. *)

let () =
  Alcotest.run "cftcg"
    (Test_util.suites @ Test_xml.suites @ Test_value.suites @ Test_graph.suites
   @ Test_slx.suites @ Test_ir.suites @ Test_codegen.suites @ Test_coverage.suites @ Test_models.suites @ Test_fuzz.suites @ Test_fuzzer_pin.suites @ Test_resume.suites @ Test_symexec.suites @ Test_solver_pin.suites @ Test_pipeline.suites @ Test_interp.suites @ Test_ir_opt.suites @ Test_opt_pin.suites @ Test_eval_pin.suites @ Test_assertions.suites @ Test_hybrid.suites @ Test_ranges.suites @ Test_minimize.suites @ Test_dictionary.suites @ Test_coverage_ext.suites @ Test_hierarchy.suites @ Test_c_backend.suites @ Test_random_models.suites @ Test_vm_diff.suites @ Test_shared_code.suites @ Test_cemit_more.suites @ Test_parallel_states.suites @ Test_campaign.suites @ Test_obs.suites @ Test_log.suites @ Test_fault.suites @ Test_store_migration.suites @ Test_serve.suites)

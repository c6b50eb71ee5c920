(* Aggregates every suite; run with `dune runtest`. *)

let () =
  Alcotest.run "morphosys_cds"
    [
      Test_listx.tests;
      Test_interval.tests;
      Test_pretty.tests;
      Test_morphosys.tests;
      Test_kernel_ir.tests;
      Test_info_extractor.tests;
      Test_fb_alloc.tests;
      Test_ds_formula.tests;
      Test_sched_units.tests;
      Test_ctx_plan.tests;
      Test_schedulers.tests;
      Test_cds_units.tests;
      Test_sim.tests;
      Test_allocation.tests;
      Test_workloads.tests;
      Test_pipeline.tests;
      Test_codegen.tests;
      Test_appdsl.tests;
      Test_report.tests;
      Test_step_builder.tests;
      Test_invariant.tests;
      Test_vcd.tests;
      Test_dse.tests;
      Test_engine.tests;
      Test_store.tests;
      Test_dse_parallel.tests;
      Test_dse_resume.tests;
      Test_fuzz_oracle.tests;
      Test_analysis.tests;
      Test_misc_coverage.tests;
      Test_diagnostics.tests;
      Test_degrade.tests;
      Test_registry.tests;
    ]

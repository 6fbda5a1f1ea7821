let () =
  Alcotest.run "elag"
    [ ("isa", Test_isa.suite)
    ; ("predict", Test_predict.suite)
    ; ("minic", Test_minic.suite)
    ; ("lang", Test_lang.suite)
    ; ("ir", Test_ir.suite)
    ; ("analyses", Test_analyses.suite)
    ; ("opt", Test_opt.suite)
    ; ("classify", Test_classify.suite)
    ; ("codegen", Test_codegen.suite)
    ; ("sim", Test_sim.suite)
    ; ("workloads", Test_workloads.suite)
    ; ("harness", Test_harness.suite)
    ; ("engine", Test_engine.suite)
    ; ("verify", Test_verify.suite)
    ; ("fuzz", Test_fuzz.suite)
    ; ("telemetry", Test_telemetry.suite)
    ; ("properties", Test_properties.suite) ]

let () =
  Alcotest.run "crsharing"
    [
      ("num", Test_num.suite);
      ("util", Test_util.suite);
      ("model", Test_model.suite);
      ("properties", Test_properties.suite);
      ("policy", Test_policy.suite);
      ("online", Test_online.suite);
      ("hypergraph", Test_hypergraph.suite);
      ("algorithms", Test_algorithms.suite);
      ("dp_parity", Test_dp_parity.suite);
      ("registry", Test_registry.suite);
      ("reduction", Test_reduction.suite);
      ("binpack", Test_binpack.suite);
      ("discont", Test_discont.suite);
      ("generators", Test_generators.suite);
      ("exec", Test_exec.suite);
      ("campaign", Test_campaign.suite);
      ("fuzz", Test_fuzz.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("balance", Test_balance.suite);
      ("manycore", Test_manycore.suite);
      ("extension", Test_extension.suite);
      ("render", Test_render.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("stress", Test_stress.suite);
      ("cli", Test_cli.suite);
      ("harness", Test_harness.suite);
    ]

let () =
  Wolfram.init ();
  Alcotest.run "wolfram-compiler"
    [ ("bignum", Test_bignum.tests);
      ("wexpr", Test_wexpr.tests);
      ("pattern", Test_pattern.tests);
      ("tensor", Test_tensor.tests);
      ("runtime", Test_runtime.tests);
      ("kernel", Test_kernel.tests);
      ("macro+binding", Test_macro.tests);
      ("types+inference", Test_types.tests);
      ("ir+passes", Test_passes.tests);
      ("stdlib+builtins2", Test_stdlib.tests);
      ("backends", Test_backends.tests);
      ("pipeline (pass manager + cache)", Test_pipeline.tests);
      ("wvm (the baseline)", Test_wvm.tests);
      ("features (Table 1)", Test_features.tests);
      ("appendix (A.6)", Test_appendix.tests);
      ("export (F10)", Test_export.tests);
      ("cemit (C backend + wolfc build)", Test_cemit.tests);
      ("emit rows (op agreement)", Test_emit_rows.tests);
      ("fuzz (differential)", Test_fuzz.tests);
      ("parallel (domain safety)", Test_parallel.tests);
      ("obs (tracing/metrics/profiling)", Test_obs.tests);
      ("obs-request (request tracing + flight recorder)", Test_obs_request.tests);
      ("serve (wolfd daemon)", Test_serve.tests);
      ("tier (adaptive execution + disk cache)", Test_tier.tests);
      ("parloop (data-parallel loops)", Test_parloop.tests) ]

let () =
  Alcotest.run "avp"
    [
      ("logic", Test_logic.suite);
      ("hdl", Test_hdl.suite);
      ("hdl2", Test_hdl2.suite);
      ("expr-fuzz", Test_expr_fuzz.suite);
      ("sim-diff", Test_sim_diff.suite);
      ("sliced", Test_sliced.suite);
      ("sml", Test_sml.suite);
      ("hdl-mutation", Test_hdl_mutation.suite);
      ("core", Test_core.suite);
      ("fsm", Test_fsm.suite);
      ("enum", Test_enum.suite);
      ("rows", Test_rows.suite);
      ("cli", Test_cli.suite);
      ("parallel", Test_parallel.suite);
      ("tour", Test_tour.suite);
      ("tour2", Test_tour2.suite);
      ("mutate", Test_mutate.suite);
      ("pp", Test_pp.suite);
      ("control", Test_control.suite);
      ("harness", Test_harness.suite);
      ("ext", Test_ext.suite);
      ("analysis", Test_analysis.suite);
      ("absint", Test_absint.suite);
      ("pp2", Test_pp2.suite);
      ("obs", Test_obs.suite);
      ("prof", Test_prof.suite);
      ("fuzz", Test_fuzz.suite);
      ("campaign3", Test_campaign3.suite);
    ]

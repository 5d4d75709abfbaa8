(* Tests for test-suite minimization and the detailed coverage
   report. *)

open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Minimize = Cftcg_fuzz.Minimize
module Layout = Cftcg_fuzz.Layout
module Recorder = Cftcg_coverage.Recorder

let campaign_suite prog seed execs =
  let r = Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed } prog (Fuzzer.Exec_budget execs) in
  List.map (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data) r.Fuzzer.test_suite

let test_minimize_preserves_coverage () =
  List.iter
    (fun (name, mk) ->
      let prog = Codegen.lower (mk ()) in
      let suite = campaign_suite prog 6L 5000 in
      let kept, stats = Minimize.suite prog suite in
      let before = Cftcg.Evaluate.replay prog suite in
      let after = Cftcg.Evaluate.replay prog kept in
      Alcotest.(check (float 0.001))
        (name ^ " decision preserved")
        before.Recorder.decision_pct after.Recorder.decision_pct;
      Alcotest.(check (float 0.001))
        (name ^ " condition preserved")
        before.Recorder.condition_pct after.Recorder.condition_pct;
      Alcotest.(check int) (name ^ " accounting") (List.length suite)
        (stats.Minimize.kept + stats.Minimize.dropped))
    [ ("arith", Fixtures.arith_model); ("logic", Fixtures.logic_model);
      ("chart", Fixtures.chart_model) ]

let test_minimize_drops_redundant () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let layout = Layout.of_program prog in
  let mk a b c =
    let data = Bytes.create layout.Layout.tuple_len in
    Layout.set_field layout data ~tuple:0 ~field:0 (Value.of_bool a);
    Layout.set_field layout data ~tuple:0 ~field:1 (Value.of_bool b);
    Layout.set_field layout data ~tuple:0 ~field:2 (Value.of_bool c);
    data
  in
  (* exhaustive plus duplicates: minimized set must shrink *)
  let all =
    [ mk false false false; mk false false true; mk false true false; mk false true true;
      mk true false false; mk true false true; mk true true false; mk true true true ]
  in
  let suite = all @ all @ all in
  let kept, stats = Minimize.suite prog suite in
  Alcotest.(check bool) "duplicates dropped" true (stats.Minimize.dropped >= List.length all * 2);
  Alcotest.(check bool) "kept nonempty" true (kept <> [])

(* probe bitmap of a suite: replay every case and record which probe
   cells fire — Minimize's invariant is that this set is preserved *)
let probe_set prog suite =
  let layout = Layout.of_program prog in
  let n = max prog.Cftcg_ir.Ir.n_probes 1 in
  let total = Bytes.make n '\000' in
  let hooks = Cftcg_ir.Hooks.probes_only (fun id -> Bytes.set total id '\001') in
  let compiled = Cftcg_ir.Ir_vm.compile ~optimize:false ~hooks prog in
  List.iter
    (fun data ->
      Cftcg_ir.Ir_vm.reset compiled;
      for tuple = 0 to Layout.n_tuples layout data - 1 do
        Layout.load_tuple_vm layout data ~tuple compiled;
        Cftcg_ir.Ir_vm.step compiled
      done)
    suite;
  total

let prop_minimize_preserves_probe_set =
  QCheck.Test.make ~name:"minimize preserves the probe set on random models" ~count:25
    QCheck.(make Gen.(int_bound 100_000))
    (fun case_seed ->
      let rng = Cftcg_util.Rng.create (Int64.of_int (case_seed + 1)) in
      let prog = Codegen.lower (Model_gen.generate rng) in
      let suite =
        campaign_suite prog (Int64.of_int (case_seed * 2654435761 + 17)) 400
      in
      let kept, _ = Minimize.suite prog suite in
      probe_set prog kept = probe_set prog suite)

let test_minimize_duplicate_inputs () =
  (* a suite that is one input repeated collapses to that input *)
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let layout = Layout.of_program prog in
  let d = Bytes.make layout.Layout.tuple_len '\001' in
  let kept, stats = Minimize.suite prog [ d; Bytes.copy d; Bytes.copy d; Bytes.copy d ] in
  Alcotest.(check int) "one survivor" 1 (List.length kept);
  Alcotest.(check int) "three dropped" 3 stats.Minimize.dropped;
  Alcotest.(check bytes) "the input itself" d (List.hd kept)

let test_minimize_empty_suite () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let kept, stats = Minimize.suite prog [] in
  Alcotest.(check int) "nothing kept" 0 (List.length kept);
  Alcotest.(check int) "nothing dropped" 0 stats.Minimize.dropped

let test_minimize_prefers_short_cases () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let layout = Layout.of_program prog in
  let short = Bytes.make layout.Layout.tuple_len '\001' in
  let long = Bytes.make (10 * layout.Layout.tuple_len) '\001' in
  (* identical coverage: the short one must win *)
  let kept, _ = Minimize.suite prog [ long; short ] in
  (match kept with
  | [ k ] -> Alcotest.(check int) "short kept" (Bytes.length short) (Bytes.length k)
  | _ -> Alcotest.fail "expected exactly one survivor")

let test_detailed_report_mentions_uncovered () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let recorder = Recorder.create prog in
  let compiled = Cftcg_ir.Ir_vm.compile ~optimize:false ~hooks:(Recorder.hooks recorder) prog in
  Cftcg_ir.Ir_vm.reset compiled;
  (* single input: half the outcomes stay uncovered *)
  List.iteri (fun i v -> Cftcg_ir.Ir_vm.set_input compiled i v)
    [ Value.of_bool true; Value.of_bool true; Value.of_bool true ];
  Cftcg_ir.Ir_vm.step compiled;
  let text = Recorder.detailed recorder in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has NOT COVERED" true (contains "NOT COVERED" text);
  Alcotest.(check bool) "has T only" true (contains "T only" text);
  Alcotest.(check bool) "has MCDC status" true (contains "MCDC NOT achieved" text)

let test_html_report () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let recorder = Recorder.create prog in
  let compiled = Cftcg_ir.Ir_vm.compile ~optimize:false ~hooks:(Recorder.hooks recorder) prog in
  Cftcg_ir.Ir_vm.reset compiled;
  List.iteri (fun i v -> Cftcg_ir.Ir_vm.set_input compiled i v)
    [ Value.of_bool true; Value.of_bool false; Value.of_bool true ];
  Cftcg_ir.Ir_vm.step compiled;
  let html =
    Cftcg_coverage.Html_report.render ~model_name:"LogicM"
      ~signal_ranges:[ ("y", 0.0, 1.0) ] recorder
  in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has title" true (contains "Model coverage — LogicM" html);
  Alcotest.(check bool) "has uncovered marker" true (contains "miss" html);
  Alcotest.(check bool) "has signal table" true (contains "Signal ranges" html);
  Alcotest.(check bool) "closes html" true (contains "</html>" html);
  (* structured status agrees with the aggregate report *)
  let statuses = Recorder.decisions_status recorder in
  let covered =
    List.fold_left
      (fun acc (d : Recorder.decision_status) ->
        acc + Array.fold_left (fun a c -> a + Bool.to_int c) 0 d.Recorder.ds_outcomes)
      0 statuses
  in
  Alcotest.(check int) "status matches report" (Recorder.report recorder).Recorder.outcomes_covered
    covered

let suites =
  [ ( "fuzz.minimize",
      [ Alcotest.test_case "preserves coverage" `Slow test_minimize_preserves_coverage;
        Alcotest.test_case "drops redundant" `Quick test_minimize_drops_redundant;
        Alcotest.test_case "empty suite" `Quick test_minimize_empty_suite;
        Alcotest.test_case "duplicate inputs" `Quick test_minimize_duplicate_inputs;
        Alcotest.test_case "prefers short" `Quick test_minimize_prefers_short_cases;
        QCheck_alcotest.to_alcotest ~verbose:false prop_minimize_preserves_probe_set ] );
    ( "coverage.detailed",
      [ Alcotest.test_case "report content" `Quick test_detailed_report_mentions_uncovered;
        Alcotest.test_case "html report" `Quick test_html_report ] ) ]

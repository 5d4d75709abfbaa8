(* Tests for the end-to-end pipeline, the shared evaluation harness,
   the tool interface, and CSV test-case conversion. *)

open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Recorder = Cftcg_coverage.Recorder
module Tools = Cftcg_baselines.Tools
module Simcotest = Cftcg_baselines.Simcotest
module Testcase = Cftcg_testcase.Testcase

let test_generate_produces_consistent_artifacts () =
  let gen = Cftcg.Pipeline.generate (Fixtures.arith_model ()) in
  Alcotest.(check int) "layout matches inports" 3
    (Array.length gen.Cftcg.Pipeline.layout.Layout.fields);
  let prog = gen.Cftcg.Pipeline.program in
  Alcotest.(check bool) "C code nonempty" true
    (String.length (Cftcg_ir.Cemit.emit_program prog) > 100);
  Alcotest.(check bool) "driver nonempty" true
    (String.length (Cftcg_ir.Cemit.emit_fuzz_driver prog) > 100)

let test_campaign_end_to_end () =
  let campaign =
    Cftcg.Pipeline.run_campaign
      ~config:{ Fuzzer.default_config with Fuzzer.seed = 5L }
      (Fixtures.arith_model ()) (Fuzzer.Exec_budget 2000)
  in
  Alcotest.(check bool) "some test cases" true
    (List.length campaign.Cftcg.Pipeline.fuzz.Fuzzer.test_suite > 0);
  Alcotest.(check bool) "coverage positive" true
    (campaign.Cftcg.Pipeline.coverage.Recorder.decision_pct > 50.0)

let test_replay_empty_suite_is_zero () =
  let prog = Codegen.lower (Fixtures.arith_model ()) in
  let r = Cftcg.Evaluate.replay prog [] in
  Alcotest.(check (float 0.0)) "zero decision" 0.0 r.Recorder.decision_pct

let test_replay_is_cumulative () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let layout = Layout.of_program prog in
  let mk a b c =
    let data = Bytes.create layout.Layout.tuple_len in
    Layout.set_field layout data ~tuple:0 ~field:0 (Value.of_bool a);
    Layout.set_field layout data ~tuple:0 ~field:1 (Value.of_bool b);
    Layout.set_field layout data ~tuple:0 ~field:2 (Value.of_bool c);
    data
  in
  let one = Cftcg.Evaluate.replay prog [ mk true true true ] in
  let both = Cftcg.Evaluate.replay prog [ mk true true true; mk false false false ] in
  Alcotest.(check bool) "more cases, more coverage" true
    (both.Recorder.decision_pct > one.Recorder.decision_pct)

let test_decision_series_monotone () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let layout = Layout.of_program prog in
  let rng = Cftcg_util.Rng.create 9L in
  let timed =
    List.init 10 (fun i -> (Layout.random_tuple_bytes layout rng, float_of_int i *. 0.1))
  in
  let series = Cftcg.Evaluate.decision_series prog timed in
  Alcotest.(check int) "one point per case" 10 (List.length series);
  let rec check_monotone last = function
    | [] -> ()
    | (t, cov) :: rest ->
      Alcotest.(check bool) "time sorted" true (t >= fst last);
      Alcotest.(check bool) "coverage non-decreasing" true (cov >= snd last);
      check_monotone (t, cov) rest
  in
  check_monotone (-1.0, 0.0) series

let test_all_tools_produce_scoreable_suites () =
  let m = Fixtures.arith_model () in
  List.iter
    (fun (tool : Tools.t) ->
      let outcome, report = Cftcg.Pipeline.score_tool tool m ~seed:3L ~time_budget:0.3 in
      Alcotest.(check string) "name matches" tool.Tools.name outcome.Tools.tool_name;
      Alcotest.(check bool)
        (Printf.sprintf "%s achieves coverage (%.0f%%)" tool.Tools.name
           report.Recorder.decision_pct)
        true
        (report.Recorder.decision_pct > 0.0))
    Tools.all

let test_fuzz_only_misses_condition_coverage () =
  (* the Figure 8 effect, as a regression test: on the logic-heavy
     fixture the branchless build cannot see boolean conditions *)
  let m = Fixtures.logic_model () in
  let _, cftcg_report = Cftcg.Pipeline.score_tool Tools.cftcg m ~seed:1L ~time_budget:0.4 in
  let _, fo_report = Cftcg.Pipeline.score_tool Tools.fuzz_only m ~seed:1L ~time_budget:0.4 in
  Alcotest.(check bool)
    (Printf.sprintf "CFTCG MCDC %.0f%% >= FuzzOnly %.0f%%" cftcg_report.Recorder.mcdc_pct
       fo_report.Recorder.mcdc_pct)
    true
    (cftcg_report.Recorder.mcdc_pct >= fo_report.Recorder.mcdc_pct)

let test_simcotest_runs_on_interpreter () =
  let m = Fixtures.chart_model () in
  let r = Simcotest.run ~config:{ Simcotest.default_config with Simcotest.seed = 2L } m ~time_budget:0.3 in
  Alcotest.(check bool) "simulated candidates" true (r.Simcotest.executions > 0);
  Alcotest.(check bool) "iterations counted" true
    (r.Simcotest.iterations >= r.Simcotest.executions);
  (* each test case has horizon tuples *)
  let layout = Layout.of_inports (Graph.inports m) in
  List.iter
    (fun (tc : Simcotest.test_case) ->
      Alcotest.(check int) "horizon tuples" Simcotest.default_config.Simcotest.horizon
        (Layout.n_tuples layout tc.Simcotest.data))
    r.Simcotest.suite

let test_tools_by_name () =
  Alcotest.(check bool) "finds cftcg" true (Tools.by_name "cftcg" <> None);
  Alcotest.(check bool) "finds SLDV" true (Tools.by_name "SLDV" <> None);
  Alcotest.(check bool) "unknown is none" true (Tools.by_name "zzz" = None)

(* --- CSV conversion --- *)

let test_csv_roundtrip () =
  let layout =
    Layout.of_inports [| ("a", Dtype.Int8); ("b", Dtype.Float64); ("c", Dtype.Bool) |]
  in
  let rng = Cftcg_util.Rng.create 12L in
  for _ = 1 to 20 do
    let tuples = 1 + Cftcg_util.Rng.int rng 6 in
    let data =
      Bytes.concat Bytes.empty (List.init tuples (fun _ -> Layout.random_tuple_bytes layout rng))
    in
    let csv = Testcase.to_csv layout data in
    let back = Testcase.of_csv layout csv in
    Alcotest.(check bytes) "roundtrip" data back
  done

let test_csv_header () =
  let layout = Layout.of_inports [| ("Enable", Dtype.Int8); ("Power", Dtype.Int32) |] in
  let csv = Testcase.to_csv layout (Bytes.make 5 '\000') in
  match String.split_on_char '\n' csv with
  | header :: _ -> Alcotest.(check string) "header" "step,Enable,Power" header
  | [] -> Alcotest.fail "empty csv"

let test_csv_rejects_garbage () =
  let column ty = Layout.of_inports [| ("a", ty) |] in
  let int8 = column Dtype.Int8 in
  List.iter
    (fun (layout, s) ->
      match Testcase.of_csv layout s with
      | exception Testcase.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted " ^ s))
    (List.map
       (fun s -> (int8, s))
       [ ""; "wrong,header\n0,1"; "step,a\n0"; "step,a\n0,xyz"; "step,a\n0,1,2" ]);
  (* cells the dtype cannot hold exactly: out of range, non-integral,
     or a bool other than 0/1 — each named by row and column *)
  List.iter
    (fun (ty, cell) ->
      let s = "step,a\n0,0\n1," ^ cell in
      match Testcase.of_csv (column ty) s with
      | exception Testcase.Parse_error msg ->
        Alcotest.(check bool) ("row and column in " ^ msg) true
          (String.starts_with ~prefix:"row 1, column a:" msg)
      | _ -> Alcotest.failf "accepted %s %s" (Dtype.name ty) cell)
    [ (Dtype.UInt8, "300"); (Dtype.UInt8, "-1"); (Dtype.Int16, "40000"); (Dtype.Int8, "2.75");
      (Dtype.Bool, "7"); (Dtype.UInt8, "256.0"); (Dtype.Bool, "-1") ];
  (* float-formatted integers stay accepted *)
  let data = Testcase.of_csv int8 "step,a\n0,3.0" in
  Alcotest.(check int) "3.0 into int8" 3
    (Value.to_int (Layout.field_value int8 data ~tuple:0 ~field:0))

let test_csv_suite_files () =
  let layout = Layout.of_inports [| ("u", Dtype.Int16) |] in
  let rng = Cftcg_util.Rng.create 13L in
  let suite = List.init 3 (fun _ -> Layout.random_tuple_bytes layout rng) in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cftcg_test_suite" in
  let paths = Testcase.save_suite layout ~dir ~prefix:"t" suite in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove paths)
    (fun () ->
      Alcotest.(check int) "three files" 3 (List.length paths);
      let loaded = Testcase.load_suite layout paths in
      Alcotest.(check (list bytes)) "suite roundtrip" suite loaded)

let suites =
  [ ( "core.pipeline",
      [ Alcotest.test_case "generate artifacts" `Quick test_generate_produces_consistent_artifacts;
        Alcotest.test_case "campaign end to end" `Quick test_campaign_end_to_end;
        Alcotest.test_case "replay empty" `Quick test_replay_empty_suite_is_zero;
        Alcotest.test_case "replay cumulative" `Quick test_replay_is_cumulative;
        Alcotest.test_case "decision series" `Quick test_decision_series_monotone ] );
    ( "baselines.tools",
      [ Alcotest.test_case "all tools scoreable" `Slow test_all_tools_produce_scoreable_suites;
        Alcotest.test_case "fuzz-only misses MCDC" `Slow test_fuzz_only_misses_condition_coverage;
        Alcotest.test_case "simcotest on interpreter" `Quick test_simcotest_runs_on_interpreter;
        Alcotest.test_case "by_name" `Quick test_tools_by_name ] );
    ( "testcase.csv",
      [ Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
        Alcotest.test_case "header" `Quick test_csv_header;
        Alcotest.test_case "rejects garbage" `Quick test_csv_rejects_garbage;
        Alcotest.test_case "suite files" `Quick test_csv_suite_files ] ) ]

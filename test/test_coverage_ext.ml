(* Tests for the extended coverage families: lookup-table interval
   coverage and signal range coverage. *)

open Cftcg_model
module B = Build
module Codegen = Cftcg_codegen.Codegen
module Recorder = Cftcg_coverage.Recorder
module Layout = Cftcg_fuzz.Layout

let lookup_model () =
  let b = B.create "Lut" in
  let u = B.inport b "u" Dtype.Float64 in
  let y = B.lookup b ~name:"Curve" ~xs:[| 0.; 10.; 20.; 30. |] ~ys:[| 0.; 5.; 7.; 8. |] u in
  B.outport b "y" y;
  B.finish b

let drive c v =
  Cftcg_ir.Ir_vm.set_input c 0 (Value.of_float Dtype.Float64 v);
  Cftcg_ir.Ir_vm.step c

let test_lookup_metadata () =
  let prog = Codegen.lower (lookup_model ()) in
  Alcotest.(check int) "one table" 1 (Array.length prog.Cftcg_ir.Ir.lookup_tables);
  let _, cells = prog.Cftcg_ir.Ir.lookup_tables.(0) in
  (* 4 breakpoints -> 3 segments + 2 clip regions *)
  Alcotest.(check int) "five intervals" 5 (Array.length cells)

let test_lookup_interval_coverage () =
  let prog = Codegen.lower (lookup_model ()) in
  let rec_ = Recorder.create prog in
  let c = Cftcg_ir.Ir_vm.compile ~optimize:false ~hooks:(Recorder.hooks rec_) prog in
  Cftcg_ir.Ir_vm.reset c;
  let pct () = (Recorder.report rec_).Recorder.lookup_pct in
  Alcotest.(check (float 0.01)) "empty" 0.0 (pct ());
  drive c 5.0;
  (* segment 1 *)
  Alcotest.(check (float 0.01)) "one of five" 20.0 (pct ());
  drive c 15.0;
  drive c 25.0;
  Alcotest.(check (float 0.01)) "interior done" 60.0 (pct ());
  drive c (-3.0);
  drive c 99.0;
  Alcotest.(check (float 0.01)) "all intervals" 100.0 (pct ());
  match Recorder.lookup_intervals rec_ with
  | [ (name, hit, total) ] ->
    Alcotest.(check string) "name" "Curve" name;
    Alcotest.(check int) "hit" 5 hit;
    Alcotest.(check int) "total" 5 total
  | _ -> Alcotest.fail "expected one table"

let test_lookup_pct_without_tables () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let rec_ = Recorder.create prog in
  Alcotest.(check (float 0.01)) "vacuous 100%" 100.0 (Recorder.report rec_).Recorder.lookup_pct

let test_signal_ranges () =
  let prog = Codegen.lower (Fixtures.feedback_model ()) in
  let layout = Layout.of_program prog in
  let mk v =
    let data = Bytes.create layout.Layout.tuple_len in
    Layout.set_field layout data ~tuple:0 ~field:0 (Value.of_float Dtype.Float64 v);
    data
  in
  (* the integrator saturates at [0, 100]: feed big steps *)
  let suite = [ Bytes.concat Bytes.empty [ mk 60.; mk 60.; mk 60.; mk 60. ] ] in
  let ranges = Cftcg.Evaluate.signal_ranges prog suite in
  match List.find_opt (fun (n, _, _) -> n = "acc") ranges with
  | Some (_, lo, hi) ->
    Alcotest.(check (float 0.01)) "min 0" 0.0 lo;
    Alcotest.(check (float 0.01)) "max saturated" 100.0 hi
  | None -> Alcotest.fail "output 'acc' not reported"

let test_signal_ranges_empty_suite () =
  let prog = Codegen.lower (Fixtures.feedback_model ()) in
  let ranges = Cftcg.Evaluate.signal_ranges prog [] in
  List.iter
    (fun (_, lo, hi) ->
      Alcotest.(check (float 0.0)) "zeroed min" 0.0 lo;
      Alcotest.(check (float 0.0)) "zeroed max" 0.0 hi)
    ranges

let suites =
  [ ( "coverage.lookup",
      [ Alcotest.test_case "metadata" `Quick test_lookup_metadata;
        Alcotest.test_case "interval coverage" `Quick test_lookup_interval_coverage;
        Alcotest.test_case "vacuous without tables" `Quick test_lookup_pct_without_tables ] );
    ( "coverage.signal_range",
      [ Alcotest.test_case "observes bounds" `Quick test_signal_ranges;
        Alcotest.test_case "empty suite" `Quick test_signal_ranges_empty_suite ] ) ]

(* Tests for the coverage recorder: decision / condition / MCDC. *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Recorder = Cftcg_coverage.Recorder

let drive c inputs =
  List.iteri (fun i v -> Ir_vm.set_input c i v) inputs;
  Ir_vm.step c

let vb = Value.of_bool

let logic_setup () =
  let m = Fixtures.logic_model () in
  let p = Codegen.lower m in
  let rec_ = Recorder.create p in
  let c = Ir_vm.compile ~optimize:false ~hooks:(Recorder.hooks rec_) p in
  Ir_vm.reset c;
  (p, rec_, c)

let test_empty_coverage_is_zero () =
  let _, rec_, _ = logic_setup () in
  let r = Recorder.report rec_ in
  Alcotest.(check (float 0.0)) "decision 0" 0.0 r.Recorder.decision_pct;
  Alcotest.(check (float 0.0)) "condition 0" 0.0 r.Recorder.condition_pct;
  Alcotest.(check (float 0.0)) "mcdc 0" 0.0 r.Recorder.mcdc_pct;
  Alcotest.(check int) "no probes" 0 (Recorder.probes_covered rec_)

let test_single_input_partial_coverage () =
  let _, rec_, c = logic_setup () in
  drive c [ vb false; vb false; vb false ];
  let r = Recorder.report rec_ in
  (* and=false, or=true: one outcome per decision -> 50% decision *)
  Alcotest.(check (float 0.01)) "decision 50" 50.0 r.Recorder.decision_pct;
  (* each condition saw exactly one polarity *)
  Alcotest.(check int) "no condition complete" 0 r.Recorder.conditions_covered;
  Alcotest.(check int) "no mcdc yet" 0 r.Recorder.mcdc_covered

let test_full_coverage_logic () =
  let _, rec_, c = logic_setup () in
  (* exhaustive boolean inputs *)
  List.iter
    (fun (a, b, cc) -> drive c [ vb a; vb b; vb cc ])
    [ (false, false, false); (false, false, true); (false, true, false); (false, true, true);
      (true, false, false); (true, false, true); (true, true, false); (true, true, true) ]
  ;
  let r = Recorder.report rec_ in
  Alcotest.(check (float 0.01)) "decision 100" 100.0 r.Recorder.decision_pct;
  Alcotest.(check (float 0.01)) "condition 100" 100.0 r.Recorder.condition_pct;
  Alcotest.(check (float 0.01)) "mcdc 100" 100.0 r.Recorder.mcdc_pct;
  Alcotest.(check int) "all probes" (Recorder.n_probes rec_) (Recorder.probes_covered rec_)

let test_mcdc_needs_independence_pair () =
  (* AND gate: (T,T)->T and (F,T)->F gives an independence pair for
     condition 1 only; condition 2 stays uncovered. *)
  let b = Build.create "AndOnly" in
  let a = Build.inport b "a" Dtype.Bool in
  let b2 = Build.inport b "b" Dtype.Bool in
  let y = Build.and_ b a b2 in
  Build.outport b "y" y;
  let m = Build.finish b in
  let p = Codegen.lower m in
  let rec_ = Recorder.create p in
  let c = Ir_vm.compile ~optimize:false ~hooks:(Recorder.hooks rec_) p in
  Ir_vm.reset c;
  drive c [ vb true; vb true ];
  drive c [ vb false; vb true ];
  let r = Recorder.report rec_ in
  Alcotest.(check int) "one condition mcdc-covered" 1 r.Recorder.mcdc_covered;
  Alcotest.(check int) "two conditions total" 2 r.Recorder.mcdc_total;
  (* now add (T,F)->F: condition 2 gains its pair *)
  drive c [ vb true; vb false ];
  let r = Recorder.report rec_ in
  Alcotest.(check int) "both mcdc-covered" 2 r.Recorder.mcdc_covered

let test_condition_vs_mcdc_difference () =
  (* For an AND gate, inputs (F,F),(T,T) give full condition coverage
     but NOT full MCDC: flipping one condition of (F,F) is never
     observed. *)
  let b = Build.create "AndGap" in
  let a = Build.inport b "a" Dtype.Bool in
  let b2 = Build.inport b "b" Dtype.Bool in
  let y = Build.and_ b a b2 in
  Build.outport b "y" y;
  let m = Build.finish b in
  let p = Codegen.lower m in
  let rec_ = Recorder.create p in
  let c = Ir_vm.compile ~optimize:false ~hooks:(Recorder.hooks rec_) p in
  Ir_vm.reset c;
  drive c [ vb false; vb false ];
  drive c [ vb true; vb true ];
  let r = Recorder.report rec_ in
  Alcotest.(check (float 0.01)) "condition 100" 100.0 r.Recorder.condition_pct;
  Alcotest.(check (float 0.01)) "mcdc 0" 0.0 r.Recorder.mcdc_pct

let test_coverage_monotone () =
  let _, rec_, c = logic_setup () in
  let rng = Cftcg_util.Rng.create 5L in
  let last = ref (0.0, 0.0, 0.0) in
  for _ = 1 to 100 do
    drive c [ vb (Cftcg_util.Rng.bool rng); vb (Cftcg_util.Rng.bool rng); vb (Cftcg_util.Rng.bool rng) ];
    let r = Recorder.report rec_ in
    let d, cc, m = !last in
    Alcotest.(check bool) "decision monotone" true (r.Recorder.decision_pct >= d);
    Alcotest.(check bool) "condition monotone" true (r.Recorder.condition_pct >= cc);
    Alcotest.(check bool) "mcdc monotone" true (r.Recorder.mcdc_pct >= m);
    last := (r.Recorder.decision_pct, r.Recorder.condition_pct, r.Recorder.mcdc_pct)
  done

let test_clear_resets () =
  let _, rec_, c = logic_setup () in
  drive c [ vb true; vb true; vb true ];
  Alcotest.(check bool) "something covered" true (Recorder.probes_covered rec_ > 0);
  Recorder.clear rec_;
  Alcotest.(check int) "cleared" 0 (Recorder.probes_covered rec_);
  let r = Recorder.report rec_ in
  Alcotest.(check (float 0.0)) "decision reset" 0.0 r.Recorder.decision_pct

let test_branch_total () =
  let p = Codegen.lower (Fixtures.logic_model ()) in
  (* 2 decisions with 2 outcomes each *)
  Alcotest.(check int) "branch total" 4 (Recorder.branch_total p);
  let p3 = Codegen.lower (Fixtures.arith_model ()) in
  (* saturation (3) + switch (2) = 5 *)
  Alcotest.(check int) "arith branch total" 5 (Recorder.branch_total p3)

let test_multiway_decision_coverage () =
  let p = Codegen.lower (Fixtures.arith_model ()) in
  let rec_ = Recorder.create p in
  let c = Ir_vm.compile ~optimize:false ~hooks:(Recorder.hooks rec_) p in
  Ir_vm.reset c;
  let vi n = Value.of_int Dtype.Int32 n in
  let v8 n = Value.of_int Dtype.Int8 n in
  drive c [ vi 3; vi 3; v8 1 ];
  (* within + switch-true *)
  let r = Recorder.report rec_ in
  Alcotest.(check int) "2 of 5 outcomes" 2 r.Recorder.outcomes_covered;
  drive c [ vi 100; vi 100; v8 0 ];
  (* above + switch-false *)
  drive c [ vi (-100); vi 0; v8 1 ];
  (* below + switch-true (already seen) *)
  let r = Recorder.report rec_ in
  Alcotest.(check int) "5 of 5 outcomes" 5 r.Recorder.outcomes_covered

let suites =
  [ ( "coverage.recorder",
      [ Alcotest.test_case "empty is zero" `Quick test_empty_coverage_is_zero;
        Alcotest.test_case "partial coverage" `Quick test_single_input_partial_coverage;
        Alcotest.test_case "full logic coverage" `Quick test_full_coverage_logic;
        Alcotest.test_case "mcdc independence pair" `Quick test_mcdc_needs_independence_pair;
        Alcotest.test_case "condition vs mcdc" `Quick test_condition_vs_mcdc_difference;
        Alcotest.test_case "coverage monotone" `Quick test_coverage_monotone;
        Alcotest.test_case "clear resets" `Quick test_clear_resets;
        Alcotest.test_case "branch totals" `Quick test_branch_total;
        Alcotest.test_case "multiway decisions" `Quick test_multiway_decision_coverage ] ) ]

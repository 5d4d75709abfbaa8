(* Tests for Assertion blocks (Model Verification) and the fuzzer's
   violation oracle. *)

open Cftcg_model
module B = Build
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer

(* The invariant "output never exceeds 100" breaks when both inputs
   are large: sat(u1, 0, 60) + sat(u2, 0, 60) <= 100 is violable. *)
let violable_model () =
  let b = B.create "Violable" in
  let u1 = B.inport b "u1" Dtype.Int16 in
  let u2 = B.inport b "u2" Dtype.Int16 in
  let s1 = B.saturation b ~lower:0. ~upper:60. u1 in
  let s2 = B.saturation b ~lower:0. ~upper:60. u2 in
  let total = B.sum b [ s1; s2 ] in
  let ok = B.compare_const b Graph.R_le 100.0 total in
  B.assertion b ~name:"TotalBound" "total power exceeds 100" ok;
  B.outport b "y" total;
  B.finish b

(* sat(u, -5, 5) is always within [-10, 10]: the assertion holds. *)
let safe_model () =
  let b = B.create "Safe" in
  let u = B.inport b "u" Dtype.Int16 in
  let s = B.saturation b ~lower:(-5.) ~upper:5. u in
  let ok =
    B.and_ b
      (B.compare_const b Graph.R_le 10.0 s)
      (B.compare_const b Graph.R_ge (-10.0) s)
  in
  B.assertion b "saturation escaped its bounds" ok;
  B.outport b "y" s;
  B.finish b

let test_assertion_metadata () =
  let prog = Codegen.lower (violable_model ()) in
  Alcotest.(check int) "one assertion" 1 (Array.length prog.Cftcg_ir.Ir.assertions);
  let _, msg = prog.Cftcg_ir.Ir.assertions.(0) in
  Alcotest.(check string) "message" "TotalBound: total power exceeds 100" msg

let test_assertion_in_plain_mode () =
  (* assertions are runtime checks: present even without coverage
     instrumentation *)
  let prog = Codegen.lower ~mode:Codegen.Plain (violable_model ()) in
  Alcotest.(check int) "assertion survives plain mode" 1
    (Array.length prog.Cftcg_ir.Ir.assertions);
  Alcotest.(check int) "only the assertion cell" 1 prog.Cftcg_ir.Ir.n_probes

let test_fuzzer_finds_violation () =
  let prog = Codegen.lower (violable_model ()) in
  let r =
    Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 3L } prog
      (Fuzzer.Exec_budget 20_000)
  in
  match r.Fuzzer.failures with
  | [] -> Alcotest.fail "violation not found"
  | f :: _ ->
    Alcotest.(check string) "message" "TotalBound: total power exceeds 100" f.Fuzzer.f_message;
    (* replay the failing input and confirm the violation *)
    let layout = Cftcg_fuzz.Layout.of_program prog in
    let c = Cftcg_ir.Ir_vm.compile ~optimize:false prog in
    Cftcg_ir.Ir_vm.reset c;
    let violated = ref false in
    for tuple = 0 to Cftcg_fuzz.Layout.n_tuples layout f.Fuzzer.f_data - 1 do
      Cftcg_fuzz.Layout.load_tuple_vm layout f.Fuzzer.f_data ~tuple c;
      Cftcg_ir.Ir_vm.step c;
      if Value.to_float (Cftcg_ir.Ir_vm.get_output c 0) > 100.0 then violated := true
    done;
    Alcotest.(check bool) "failing input reproduces" true !violated

let test_safe_model_has_no_failures () =
  let prog = Codegen.lower (safe_model ()) in
  let r =
    Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 4L } prog
      (Fuzzer.Exec_budget 20_000)
  in
  Alcotest.(check int) "no failures" 0 (List.length r.Fuzzer.failures)

let test_each_assertion_reported_once () =
  let prog = Codegen.lower (violable_model ()) in
  let r =
    Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 5L } prog
      (Fuzzer.Exec_budget 50_000)
  in
  Alcotest.(check bool) "at most one failure per assertion" true
    (List.length r.Fuzzer.failures <= 1)

let test_slx_roundtrip_assertion () =
  let m = violable_model () in
  let m' = Slx.load_string (Slx.save_string m) in
  Alcotest.(check bool) "roundtrip" true (m = m')

let test_optimizer_preserves_assertions () =
  (* the assertion's probe must survive the bytecode optimizer on
     every build: a violating step still fires its cell *)
  List.iter
    (fun mode ->
      let prog = Codegen.lower ~mode (violable_model ()) in
      let id, _ = prog.Cftcg_ir.Ir.assertions.(0) in
      let vm = Cftcg_ir.Ir_vm.of_code (Cftcg_ir.Ir_vm.prepare prog) in
      Cftcg_ir.Ir_vm.reset vm;
      Array.iteri
        (fun i _ -> Cftcg_ir.Ir_vm.set_input vm i (Value.of_int Dtype.Int16 60))
        prog.Cftcg_ir.Ir.inputs;
      Cftcg_ir.Ir_vm.step vm;
      Alcotest.(check bool) "assertion probe fires" true
        (Bytes.get (Cftcg_ir.Ir_vm.probes vm).Cftcg_ir.Ir_vm.p_fired id <> '\000'))
    [ Codegen.Full; Codegen.Plain ]

let suites =
  [ ( "model.assertions",
      [ Alcotest.test_case "metadata" `Quick test_assertion_metadata;
        Alcotest.test_case "present in plain mode" `Quick test_assertion_in_plain_mode;
        Alcotest.test_case "fuzzer finds violation" `Quick test_fuzzer_finds_violation;
        Alcotest.test_case "safe model clean" `Quick test_safe_model_has_no_failures;
        Alcotest.test_case "reported once" `Quick test_each_assertion_reported_once;
        Alcotest.test_case "slx roundtrip" `Quick test_slx_roundtrip_assertion;
        Alcotest.test_case "survives optimizer" `Quick test_optimizer_preserves_assertions ] ) ]

(* Tests for model lowering: semantics of generated programs,
   instrumentation structure, and differential agreement between the
   IR evaluator and the bytecode VM on random input streams. *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen

let compile_eval_pair ?mode m =
  let p = Codegen.lower ?mode m in
  (p, Ir_eval.create p, Ir_vm.compile ~optimize:false p)

let drive_compiled c inputs =
  List.iteri (fun i v -> Ir_vm.set_input c i v) inputs;
  Ir_vm.step c

let vf f = Value.of_float Dtype.Float64 f
let vi ty n = Value.of_int ty n

let test_arith_semantics () =
  let _, _, c = compile_eval_pair (Fixtures.arith_model ()) in
  Ir_vm.reset c;
  (* y = sat(u1+u2), z = ctl>0 ? y : -y *)
  drive_compiled c [ vi Dtype.Int32 3; vi Dtype.Int32 4; vi Dtype.Int8 1 ];
  Alcotest.(check (float 0.0)) "y" 7.0 (Value.to_float (Ir_vm.get_output c 0));
  Alcotest.(check (float 0.0)) "z" 7.0 (Value.to_float (Ir_vm.get_output c 1));
  drive_compiled c [ vi Dtype.Int32 30; vi Dtype.Int32 4; vi Dtype.Int8 0 ];
  Alcotest.(check (float 0.0)) "y saturated" 10.0 (Value.to_float (Ir_vm.get_output c 0));
  Alcotest.(check (float 0.0)) "z negated" (-10.0) (Value.to_float (Ir_vm.get_output c 1))

let test_integrator_accumulates_and_saturates () =
  let _, _, c = compile_eval_pair (Fixtures.feedback_model ()) in
  Ir_vm.reset c;
  (* forward Euler: output lags one step; limit at 100 *)
  drive_compiled c [ vf 60.0 ];
  Alcotest.(check (float 0.0)) "first step outputs init" 0.0 (Value.to_float (Ir_vm.get_output c 0));
  drive_compiled c [ vf 60.0 ];
  Alcotest.(check (float 0.0)) "second step 60" 60.0 (Value.to_float (Ir_vm.get_output c 0));
  drive_compiled c [ vf 60.0 ];
  Alcotest.(check (float 0.0)) "saturates at 100" 100.0 (Value.to_float (Ir_vm.get_output c 0))

let test_chart_behaviour () =
  let _, _, c = compile_eval_pair (Fixtures.chart_model ()) in
  Ir_vm.reset c;
  let busy () = Value.is_true (Ir_vm.get_output c 0) in
  drive_compiled c [ Value.of_bool false ];
  Alcotest.(check bool) "idle initially" false (busy ());
  drive_compiled c [ Value.of_bool true ];
  Alcotest.(check bool) "starts" true (busy ());
  (* Busy holds for 3 steps of state_time *)
  drive_compiled c [ Value.of_bool false ];
  Alcotest.(check bool) "busy 1" true (busy ());
  drive_compiled c [ Value.of_bool false ];
  Alcotest.(check bool) "busy 2" true (busy ());
  drive_compiled c [ Value.of_bool false ];
  Alcotest.(check bool) "busy 3" true (busy ());
  drive_compiled c [ Value.of_bool false ];
  Alcotest.(check bool) "back to idle" false (busy ())

let test_enabled_subsystem_holds_output () =
  let _, _, c = compile_eval_pair (Fixtures.enabled_model ()) in
  Ir_vm.reset c;
  drive_compiled c [ Value.of_bool true; vf 4.0 ];
  Alcotest.(check (float 0.0)) "enabled computes" 8.0 (Value.to_float (Ir_vm.get_output c 0));
  drive_compiled c [ Value.of_bool false; vf 100.0 ];
  Alcotest.(check (float 0.0)) "disabled holds" 8.0 (Value.to_float (Ir_vm.get_output c 0));
  drive_compiled c [ Value.of_bool true; vf 1.0 ];
  Alcotest.(check (float 0.0)) "re-enabled recomputes" 2.0 (Value.to_float (Ir_vm.get_output c 0))

let test_logic_model_truth_table () =
  let _, _, c = compile_eval_pair (Fixtures.logic_model ()) in
  (* y = (a && b) || !c *)
  let cases =
    [ (false, false, false, true); (false, false, true, false); (true, false, true, false);
      (true, true, false, true); (true, true, true, true); (false, true, true, false) ]
  in
  Ir_vm.reset c;
  List.iter
    (fun (a, b, cc, expected) ->
      drive_compiled c [ Value.of_bool a; Value.of_bool b; Value.of_bool cc ];
      Alcotest.(check bool)
        (Printf.sprintf "(%b,%b,%b)" a b cc)
        expected
        (Value.is_true (Ir_vm.get_output c 0)))
    cases

let test_instrumentation_counts () =
  let m = Fixtures.logic_model () in
  let full = Codegen.lower ~mode:Codegen.Full m in
  let branchless = Codegen.lower ~mode:Codegen.Branchless m in
  let plain = Codegen.lower ~mode:Codegen.Plain m in
  (* 3 logic blocks (not is un-instrumented): and(2 conds), or(2 conds) *)
  Alcotest.(check int) "full: 2 decisions" 2 (Array.length full.Ir.decisions);
  Alcotest.(check int) "full: probes = outcomes + 2*conds" (2 * 2 + 2 * 2 * 2) full.Ir.n_probes;
  Alcotest.(check int) "branchless: no decisions" 0 (Array.length branchless.Ir.decisions);
  Alcotest.(check int) "branchless logic: no probes" 0 branchless.Ir.n_probes;
  Alcotest.(check int) "plain: no probes" 0 plain.Ir.n_probes;
  Alcotest.(check int) "plain: no decisions" 0 (Array.length plain.Ir.decisions)

let test_modes_agree_semantically () =
  (* instrumentation must not change observable behaviour *)
  let m = Fixtures.kitchen_sink_model () in
  let progs =
    List.map (fun mode -> Ir_vm.compile ~optimize:false (Codegen.lower ~mode m))
      [ Codegen.Full; Codegen.Branchless; Codegen.Plain ]
  in
  List.iter Ir_vm.reset progs;
  let rng = Cftcg_util.Rng.create 21L in
  for _ = 1 to 300 do
    let u = Cftcg_util.Rng.float rng 20.0 -. 10.0 in
    let i = Cftcg_util.Rng.int_in rng (-2) 5 in
    List.iter (fun c -> drive_compiled c [ vf u; vi Dtype.Int32 i ]) progs;
    match progs with
    | [ a; b; c ] ->
      let va = Value.to_float (Ir_vm.get_output a 0) in
      let vb = Value.to_float (Ir_vm.get_output b 0) in
      let vc = Value.to_float (Ir_vm.get_output c 0) in
      Alcotest.(check (float 1e-9)) "full = branchless" va vb;
      Alcotest.(check (float 1e-9)) "full = plain" va vc
    | _ -> assert false
  done

(* Differential property: on every fixture, the reference evaluator
   and the bytecode VM agree over random typed input streams. *)
let differential_fixture name mk =
  let m = mk () in
  let p = Codegen.lower m in
  let e = Ir_eval.create p in
  let c = Ir_vm.compile ~optimize:false p in
  Ir_eval.reset e;
  Ir_vm.reset c;
  let rng = Cftcg_util.Rng.create 77L in
  let gen_input (var : Ir.var) =
    let ty = var.Ir.vty in
    match ty with
    | Dtype.Bool -> Value.of_bool (Cftcg_util.Rng.bool rng)
    | ty when Dtype.is_integer ty ->
      Value.of_int ty (Cftcg_util.Rng.int_in rng (-1000) 1000)
    | ty -> Value.of_float ty (Cftcg_util.Rng.float rng 40.0 -. 20.0)
  in
  for step = 1 to 400 do
    Array.iteri
      (fun i var ->
        let v = gen_input var in
        Ir_eval.set_input e i v;
        Ir_vm.set_input c i v)
      p.Ir.inputs;
    Ir_eval.step e;
    Ir_vm.step c;
    Array.iteri
      (fun i _ ->
        let ve = Value.to_float (Ir_eval.get_output e i) in
        let vc = Value.to_float (Ir_vm.get_output c i) in
        if ve <> vc && not (Float.is_nan ve && Float.is_nan vc) then
          Alcotest.failf "%s: output %d diverges at step %d: eval=%.17g compiled=%.17g" name i step
            ve vc)
      p.Ir.outputs
  done

let test_differential_all_fixtures () =
  List.iter
    (fun (name, mk) -> differential_fixture name mk)
    [ ("arith", Fixtures.arith_model); ("feedback", Fixtures.feedback_model);
      ("chart", Fixtures.chart_model); ("logic", Fixtures.logic_model);
      ("enabled", Fixtures.enabled_model); ("triggered", Fixtures.triggered_model); ("kitchen sink", Fixtures.kitchen_sink_model) ]

let test_lower_rejects_invalid () =
  let blocks =
    [| { Graph.bid = 0; block_name = "u"; kind = Graph.Inport { port_index = 1; port_dtype = Dtype.Float64 } };
       { Graph.bid = 1; block_name = "add"; kind = Graph.Sum "++" };
       { Graph.bid = 2; block_name = "y"; kind = Graph.Outport { port_index = 1 } } |]
  in
  let lines =
    [| { Graph.src_block = 0; src_port = 0; dst_block = 1; dst_port = 0 };
       { Graph.src_block = 1; src_port = 0; dst_block = 2; dst_port = 0 } |]
  in
  let m = { Graph.model_name = "Bad"; blocks; lines } in
  match Codegen.lower m with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "lowered a model with an unconnected input"

let test_multiport_switch_clamps () =
  let b = Build.create "MP" in
  let sel = Build.inport b "sel" Dtype.Int32 in
  let d1 = Build.const_f b 10.0 in
  let d2 = Build.const_f b 20.0 in
  let d3 = Build.const_f b 30.0 in
  let y = Build.multiport_switch b sel [ d1; d2; d3 ] in
  Build.outport b "y" y;
  let m = Build.finish b in
  let _, _, c = compile_eval_pair m in
  Ir_vm.reset c;
  let check sel expected =
    drive_compiled c [ vi Dtype.Int32 sel ];
    Alcotest.(check (float 0.0))
      (Printf.sprintf "sel=%d" sel)
      expected
      (Value.to_float (Ir_vm.get_output c 0))
  in
  check 1 10.0;
  check 2 20.0;
  check 3 30.0;
  check 0 10.0;
  (* below range clamps to first *)
  check 99 30.0 (* above range clamps to last *)

let test_type_inference_int_pipeline () =
  (* int8 + int8 promoted, then saturated, stays int-typed; codegen
     should wrap like C *)
  let b = Build.create "IntPipe" in
  let u = Build.inport b "u" Dtype.Int8 in
  let v2 = Build.inport b "v" Dtype.Int8 in
  let s = Build.sum b [ u; v2 ] in
  Build.outport b "y" s;
  let m = Build.finish b in
  let p = Codegen.lower m in
  Alcotest.(check string) "output is int8" "int8" (Dtype.name p.Ir.outputs.(0).Ir.vty);
  let c = Ir_vm.compile ~optimize:false p in
  Ir_vm.reset c;
  drive_compiled c [ vi Dtype.Int8 127; vi Dtype.Int8 1 ];
  Alcotest.(check (float 0.0)) "wraps" (-128.0) (Value.to_float (Ir_vm.get_output c 0))

let suites =
  [ ( "codegen.semantics",
      [ Alcotest.test_case "arith" `Quick test_arith_semantics;
        Alcotest.test_case "integrator" `Quick test_integrator_accumulates_and_saturates;
        Alcotest.test_case "chart" `Quick test_chart_behaviour;
        Alcotest.test_case "enabled subsystem holds" `Quick test_enabled_subsystem_holds_output;
        Alcotest.test_case "logic truth table" `Quick test_logic_model_truth_table;
        Alcotest.test_case "multiport clamps" `Quick test_multiport_switch_clamps;
        Alcotest.test_case "int pipeline wraps" `Quick test_type_inference_int_pipeline;
        Alcotest.test_case "rejects invalid model" `Quick test_lower_rejects_invalid ] );
    ( "codegen.instrumentation",
      [ Alcotest.test_case "probe counts per mode" `Quick test_instrumentation_counts;
        Alcotest.test_case "modes agree semantically" `Quick test_modes_agree_semantically ] );
    ( "codegen.differential",
      [ Alcotest.test_case "eval = compiled on all fixtures" `Slow test_differential_all_fixtures ]
    ) ]

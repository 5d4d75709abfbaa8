(* Tests for parallel (AND) state decomposition: both regions run
   each step, enter/exit together, and keep independent sub-state. *)

open Cftcg_model
module B = Build
module Codegen = Cftcg_codegen.Codegen
module Interp = Cftcg_interp.Interp
open Chart

(* Off <-> Operational(parallel):
     region Motor:  Idle -> Run when cmd, Run -> Idle when !cmd;
                    Run during: rpm += 10
     region Meter:  counts every operational step into ticks
   Exit of Operational zeroes rpm (region exit) and bumps sessions. *)
let machine =
  let power = in_ 0 in
  let cmd = in_ 1 in
  {
    chart_name = "ParallelM";
    inputs = [| ("power", Dtype.Bool); ("cmd", Dtype.Bool) |];
    outputs = [| ("rpm", Dtype.Int32); ("ticks", Dtype.Int32); ("sessions", Dtype.Int32) |];
    locals = [||];
    states =
      [| leaf "Off" ~outgoing:[ { guard = power; actions = []; dst = 1 } ];
         parallel_composite "Operational"
           ~exit_actions:[ Set_out (2, out 2 +: num 1.) ]
           ~outgoing:[ { guard = not_ power; actions = []; dst = 0 } ]
           [ composite "Motor"
               ~exit_actions:[ Set_out (0, num 0.) ]
               [ leaf "Idle" ~outgoing:[ { guard = cmd; actions = []; dst = 1 } ];
                 leaf "Run"
                   ~during:[ Set_out (0, out 0 +: num 10.) ]
                   ~outgoing:[ { guard = not_ cmd; actions = []; dst = 0 } ] ];
             leaf "Meter" ~during:[ Set_out (1, out 1 +: num 1.) ] ] |];
    init_state = 0;
  }

let model () =
  let b = B.create "ParallelModel" in
  let power = B.inport b "power" Dtype.Bool in
  let cmd = B.inport b "cmd" Dtype.Bool in
  let outs = B.chart b machine [ power; cmd ] in
  B.outport b "rpm" outs.(0);
  B.outport b "ticks" outs.(1);
  B.outport b "sessions" outs.(2);
  B.finish b

let drive c power cmd =
  Cftcg_ir.Ir_vm.set_input c 0 (Value.of_bool power);
  Cftcg_ir.Ir_vm.set_input c 1 (Value.of_bool cmd);
  Cftcg_ir.Ir_vm.step c;
  ( Value.to_int (Cftcg_ir.Ir_vm.get_output c 0),
    Value.to_int (Cftcg_ir.Ir_vm.get_output c 1),
    Value.to_int (Cftcg_ir.Ir_vm.get_output c 2) )

let test_both_regions_run () =
  let c = Cftcg_ir.Ir_vm.compile ~optimize:false (Codegen.lower (model ())) in
  Cftcg_ir.Ir_vm.reset c;
  Alcotest.(check (triple int int int)) "power on" (0, 0, 0) (drive c true false);
  (* both regions active: meter ticks while motor idles *)
  Alcotest.(check (triple int int int)) "meter only" (0, 1, 0) (drive c true false);
  (* motor starts: Idle->Run transition step (no during yet), meter keeps ticking *)
  Alcotest.(check (triple int int int)) "motor starting" (0, 2, 0) (drive c true true);
  Alcotest.(check (triple int int int)) "both running" (10, 3, 0) (drive c true true);
  Alcotest.(check (triple int int int)) "both running 2" (20, 4, 0) (drive c true true);
  (* power off: outer transition exits both regions; Motor.exit zeroes rpm *)
  Alcotest.(check (triple int int int)) "shutdown" (0, 4, 1) (drive c false true);
  (* meter holds its count across sessions (no entry reset modelled) *)
  Alcotest.(check (triple int int int)) "restart" (0, 4, 1) (drive c true false);
  Alcotest.(check (triple int int int)) "meter resumes" (0, 5, 1) (drive c true false)

let test_interp_matches_compiled () =
  let m = model () in
  let prog = Codegen.lower ~mode:Codegen.Plain m in
  let c = Cftcg_ir.Ir_vm.compile ~optimize:false prog in
  let e = Cftcg_ir.Ir_eval.create prog in
  let interp = Interp.create m in
  Cftcg_ir.Ir_vm.reset c;
  Cftcg_ir.Ir_eval.reset e;
  Interp.reset interp;
  let rng = Cftcg_util.Rng.create 51L in
  for step = 1 to 800 do
    let power = Cftcg_util.Rng.int rng 6 <> 0 in
    let cmd = Cftcg_util.Rng.bool rng in
    let set i v =
      Cftcg_ir.Ir_vm.set_input c i v;
      Cftcg_ir.Ir_eval.set_input e i v;
      Interp.set_input interp i v
    in
    set 0 (Value.of_bool power);
    set 1 (Value.of_bool cmd);
    Cftcg_ir.Ir_vm.step c;
    Cftcg_ir.Ir_eval.step e;
    Interp.step interp;
    for o = 0 to 2 do
      let vc = Value.to_float (Cftcg_ir.Ir_vm.get_output c o) in
      let ve = Value.to_float (Cftcg_ir.Ir_eval.get_output e o) in
      let vi = Value.to_float (Interp.get_output interp o) in
      if vc <> ve || vc <> vi then
        Alcotest.failf "output %d diverges at step %d: compiled=%g eval=%g interp=%g" o step vc ve
          vi
    done
  done

let test_slx_roundtrip () =
  let m = model () in
  Alcotest.(check bool) "roundtrip" true (Slx.load_string (Slx.save_string m) = m)

let test_validation_rejects_region_transitions () =
  let bad =
    { machine with
      states =
        Array.map
          (fun st ->
            if st.parallel then
              { st with
                children =
                  Array.map
                    (fun r -> { r with outgoing = [ { guard = num 1.; actions = []; dst = 0 } ] })
                    st.children
              }
            else st)
          machine.states
    }
  in
  match Chart.validate bad with
  | Error msg ->
    Alcotest.(check bool) "mentions parallel" true
      (String.split_on_char ' ' msg |> List.exists (( = ) "parallel"))
  | Ok () -> Alcotest.fail "region transitions accepted"

let test_fuzz_covers_parallel_chart () =
  let prog = Codegen.lower (model ()) in
  let r =
    Cftcg_fuzz.Fuzzer.run
      ~config:{ Cftcg_fuzz.Fuzzer.default_config with Cftcg_fuzz.Fuzzer.seed = 2L }
      prog (Cftcg_fuzz.Fuzzer.Exec_budget 5000)
  in
  let suite =
    List.map (fun (tc : Cftcg_fuzz.Fuzzer.test_case) -> tc.Cftcg_fuzz.Fuzzer.tc_data)
      r.Cftcg_fuzz.Fuzzer.test_suite
  in
  let report = Cftcg.Evaluate.replay prog suite in
  Alcotest.(check (float 0.01)) "full decision coverage" 100.0
    report.Cftcg_coverage.Recorder.decision_pct

let suites =
  [ ( "model.parallel_states",
      [ Alcotest.test_case "both regions run" `Quick test_both_regions_run;
        Alcotest.test_case "interp = eval = compiled" `Quick test_interp_matches_compiled;
        Alcotest.test_case "slx roundtrip" `Quick test_slx_roundtrip;
        Alcotest.test_case "validation" `Quick test_validation_rejects_region_transitions;
        Alcotest.test_case "fuzzable to 100%" `Quick test_fuzz_covers_parallel_chart ] ) ]

(* Tests for hierarchical charts: nested states, exit actions, outer
   transition priority, per-level timers. *)

open Cftcg_model
module B = Build
module Codegen = Cftcg_codegen.Codegen
module Interp = Cftcg_interp.Interp
open Chart

(* A power-managed machine:
   Off
   On (composite, entry sets ready=1; exit logs shutdowns)
     ├── Warmup  — to Work after 2 steps
     └── Work    — during: counts work ticks
   Outer transition On -> Off on kill, regardless of inner state:
   exit actions run innermost first. *)
let machine_chart =
  let kill = in_ 0 in
  let start = in_ 1 in
  {
    chart_name = "Machine";
    inputs = [| ("kill", Dtype.Bool); ("start", Dtype.Bool) |];
    outputs = [| ("ready", Dtype.Int32); ("work", Dtype.Int32); ("shutdowns", Dtype.Int32) |];
    locals = [||];
    states =
      [| leaf "Off" ~outgoing:[ { guard = start; actions = []; dst = 1 } ];
         composite "On"
           ~entry:[ Set_out (0, num 1.) ]
           ~exit_actions:[ Set_out (0, num 0.); Set_out (2, out 2 +: num 1.) ]
           ~outgoing:[ { guard = kill; actions = []; dst = 0 } ]
           [ leaf "Warmup"
               ~outgoing:[ { guard = State_time >=: num 2.; actions = []; dst = 1 } ];
             leaf "Work"
               ~exit_actions:[ Set_out (1, num 0.) ]
               ~during:[ Set_out (1, out 1 +: num 1.) ] ] |];
    init_state = 0;
  }

let machine_model () =
  let b = B.create "MachineM" in
  let kill = B.inport b "kill" Dtype.Bool in
  let start = B.inport b "start" Dtype.Bool in
  let outs = B.chart b machine_chart [ kill; start ] in
  B.outport b "ready" outs.(0);
  B.outport b "work" outs.(1);
  B.outport b "shutdowns" outs.(2);
  B.finish b

let drive c kill start =
  Cftcg_ir.Ir_vm.set_input c 0 (Value.of_bool kill);
  Cftcg_ir.Ir_vm.set_input c 1 (Value.of_bool start);
  Cftcg_ir.Ir_vm.step c;
  ( Value.to_int (Cftcg_ir.Ir_vm.get_output c 0),
    Value.to_int (Cftcg_ir.Ir_vm.get_output c 1),
    Value.to_int (Cftcg_ir.Ir_vm.get_output c 2) )

let test_nested_semantics () =
  let prog = Codegen.lower (machine_model ()) in
  let c = Cftcg_ir.Ir_vm.compile ~optimize:false prog in
  Cftcg_ir.Ir_vm.reset c;
  (* start: enter On -> Warmup (entry sets ready) *)
  Alcotest.(check (triple int int int)) "start" (1, 0, 0) (drive c false true);
  (* warmup holds until its own timer reaches 2 (seen before the
     increment), so the switch to Work happens on the third step *)
  Alcotest.(check (triple int int int)) "warmup t=0" (1, 0, 0) (drive c false false);
  Alcotest.(check (triple int int int)) "warmup t=1" (1, 0, 0) (drive c false false);
  Alcotest.(check (triple int int int)) "t=2 -> work" (1, 0, 0) (drive c false false);
  (* Work during bumps the counter *)
  Alcotest.(check (triple int int int)) "work tick" (1, 1, 0) (drive c false false);
  Alcotest.(check (triple int int int)) "work tick 2" (1, 2, 0) (drive c false false);
  (* kill: outer transition wins; exits run innermost first:
     Work.exit zeroes work, then On.exit zeroes ready and counts *)
  Alcotest.(check (triple int int int)) "kill" (0, 0, 1) (drive c true false);
  (* second session: shutdowns accumulate *)
  ignore (drive c false true);
  Alcotest.(check (triple int int int)) "kill during warmup" (0, 0, 2) (drive c true false)

let test_outer_transition_priority () =
  (* kill and inner condition true at once: the outer transition
     fires; the inner Warmup->Work switch must not *)
  let prog = Codegen.lower (machine_model ()) in
  let c = Cftcg_ir.Ir_vm.compile ~optimize:false prog in
  Cftcg_ir.Ir_vm.reset c;
  ignore (drive c false true);
  ignore (drive c false false);
  ignore (drive c false false);
  ignore (drive c false false);
  (* now in Work; kill + start simultaneously: goes Off *)
  let r, _, _ = drive c true true in
  Alcotest.(check int) "off" 0 r

let test_chart_metrics () =
  Alcotest.(check int) "state count" 4 (Chart.state_count machine_chart);
  Alcotest.(check int) "depth" 2 (Chart.max_depth machine_chart);
  Alcotest.(check int) "transitions" 3 (Chart.transition_count machine_chart)

let test_interp_matches_compiled () =
  let m = machine_model () in
  let prog = Codegen.lower ~mode:Codegen.Plain m in
  let c = Cftcg_ir.Ir_vm.compile ~optimize:false prog in
  let interp = Interp.create m in
  Cftcg_ir.Ir_vm.reset c;
  Interp.reset interp;
  let rng = Cftcg_util.Rng.create 41L in
  for step = 1 to 600 do
    let kill = Cftcg_util.Rng.int rng 8 = 0 in
    let start = Cftcg_util.Rng.bool rng in
    Cftcg_ir.Ir_vm.set_input c 0 (Value.of_bool kill);
    Cftcg_ir.Ir_vm.set_input c 1 (Value.of_bool start);
    Interp.set_input interp 0 (Value.of_bool kill);
    Interp.set_input interp 1 (Value.of_bool start);
    Cftcg_ir.Ir_vm.step c;
    Interp.step interp;
    for o = 0 to 2 do
      let vc = Value.to_float (Cftcg_ir.Ir_vm.get_output c o) in
      let vi = Value.to_float (Interp.get_output interp o) in
      if vc <> vi then
        Alcotest.failf "output %d diverges at step %d: compiled=%g interp=%g" o step vc vi
    done
  done

let test_slx_roundtrip_hierarchy () =
  let m = machine_model () in
  let m' = Slx.load_string (Slx.save_string m) in
  Alcotest.(check bool) "roundtrip" true (m = m')

let test_validate_hierarchy () =
  let bad_init =
    { machine_chart with
      states =
        Array.map
          (fun st -> if Array.length st.children > 0 then { st with init_child = 9 } else st)
          machine_chart.states
    }
  in
  (match Chart.validate bad_init with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad init_child accepted");
  let bad_dst =
    { machine_chart with
      states =
        Array.map
          (fun st ->
            if Array.length st.children > 0 then
              { st with
                children =
                  Array.map
                    (fun c -> { c with outgoing = [ { guard = num 1.; actions = []; dst = 7 } ] })
                    st.children
              }
            else st)
          machine_chart.states
    }
  in
  match Chart.validate bad_dst with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range sibling dst accepted"

let test_coverage_counts_nested_transitions () =
  let prog = Codegen.lower (machine_model ()) in
  (* decisions: top activity (2 outcomes... counted as decision),
     On-children activity, 3 transitions x 2 outcomes *)
  let has_nested =
    Array.exists
      (fun (d : Cftcg_ir.Ir.decision) ->
        d.Cftcg_ir.Ir.dec_block = "MachineSM/Machine.On" || d.Cftcg_ir.Ir.dec_block = "ChartM/Machine.On")
      prog.Cftcg_ir.Ir.decisions
  in
  ignore has_nested;
  Alcotest.(check bool) "has nested transition decisions" true
    (Array.exists
       (fun (d : Cftcg_ir.Ir.decision) -> d.Cftcg_ir.Ir.dec_desc = "transition to Work")
       prog.Cftcg_ir.Ir.decisions)

let suites =
  [ ( "model.hierarchy",
      [ Alcotest.test_case "nested semantics" `Quick test_nested_semantics;
        Alcotest.test_case "outer priority" `Quick test_outer_transition_priority;
        Alcotest.test_case "metrics" `Quick test_chart_metrics;
        Alcotest.test_case "interp = compiled" `Quick test_interp_matches_compiled;
        Alcotest.test_case "slx roundtrip" `Quick test_slx_roundtrip_hierarchy;
        Alcotest.test_case "validation" `Quick test_validate_hierarchy;
        Alcotest.test_case "nested instrumentation" `Quick test_coverage_counts_nested_transitions
      ] ) ]

(* Quickstart: build a small model with the Build API, generate the
   instrumented fuzz program, run a short campaign, and inspect the
   results.

     dune exec examples/quickstart.exe *)

open Cftcg_model
module B = Build
module Fuzzer = Cftcg_fuzz.Fuzzer
module Recorder = Cftcg_coverage.Recorder

(* A thermostat with hysteresis and an over-temperature cutout:
   - heater turns on below 18 degrees, off above 22 (relay);
   - a cutout trips when the sensor exceeds 80 and latches until
     reset is pulsed. *)
let thermostat () =
  let b = B.create "Thermostat" in
  let temp = B.inport b "Temp" Dtype.Int16 in
  let reset = B.inport b "Reset" Dtype.Bool in
  let temp_f = B.convert b Dtype.Float64 temp in
  let heater =
    B.relay b ~name:"Hysteresis" ~on_point:(-18.) ~off_point:(-22.) ~on_value:1. ~off_value:0.
      (B.neg b temp_f)
  in
  let overheat = B.compare_const b ~name:"Overheat" Graph.R_gt 80.0 temp_f in
  (* latch: trips on overheat, clears on reset *)
  let trip_memory = B.memory b ~name:"TripState" overheat in
  let latched = B.or_ b ~name:"TripLatch" overheat (B.and_ b trip_memory (B.not_ b reset)) in
  let safe_heater = B.switch b ~name:"Cutout" (B.const_f b 0.) latched heater in
  B.outport b "Heater" safe_heater;
  B.outport b "Tripped" (B.convert b Dtype.Int32 latched);
  B.finish b

let () =
  let model = thermostat () in
  Printf.printf "Model: %s (%d blocks)\n" model.Graph.model_name (Graph.block_count model);

  (* 1. Fuzzing Code Generation: schedule, instrument, synthesize. *)
  let gen = Cftcg.Pipeline.generate model in
  Printf.printf "Instrumented program: %d branch cells, %d decisions\n"
    gen.Cftcg.Pipeline.program.Cftcg_ir.Ir.n_probes
    (Array.length gen.Cftcg.Pipeline.program.Cftcg_ir.Ir.decisions);
  Printf.printf "\n--- generated fuzz driver (C) ---\n%s\n"
    (Cftcg_ir.Cemit.emit_fuzz_driver gen.Cftcg.Pipeline.program);

  (* 2. Model-oriented fuzzing loop, running the model as bytecode on
     the VM ([Ir_vm]). *)
  let campaign =
    Cftcg.Pipeline.run_campaign
      ~config:{ Fuzzer.default_config with Fuzzer.seed = 42L }
      model (Fuzzer.Exec_budget 20_000)
  in
  let stats = campaign.Cftcg.Pipeline.fuzz.Fuzzer.stats in
  Printf.printf "Campaign: %d inputs, %d model iterations, %d test cases\n"
    stats.Fuzzer.executions stats.Fuzzer.iterations
    (List.length campaign.Cftcg.Pipeline.fuzz.Fuzzer.test_suite);
  Format.printf "Coverage: %a@." Recorder.pp_report campaign.Cftcg.Pipeline.coverage;

  (* 3. Inspect one generated test case as CSV. *)
  match campaign.Cftcg.Pipeline.fuzz.Fuzzer.test_suite with
  | [] -> print_endline "no test cases generated"
  | tc :: _ ->
    Printf.printf "\n--- first test case (CSV) ---\n%s"
      (Cftcg_testcase.Testcase.to_csv gen.Cftcg.Pipeline.layout tc.Fuzzer.tc_data)

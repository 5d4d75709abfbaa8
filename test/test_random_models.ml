(* Toolchain self-fuzzing over random diagrams: every execution path
   must agree on every random model, and every random model must
   survive SLX round-trips and the bytecode optimizer unchanged in
   behaviour. *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Interp = Cftcg_interp.Interp
module Rng = Cftcg_util.Rng

let n_models = 120
let steps_per_model = 60

let agree name a b =
  if a <> b && not (Float.is_nan a && Float.is_nan b) then
    Alcotest.failf "%s: %.17g <> %.17g" name a b

let test_exec_paths_agree () =
  let rng = Rng.create 4242L in
  for model_ix = 1 to n_models do
    let m = Model_gen.generate rng in
    let prog = Codegen.lower m in
    let evaluator = Ir_eval.create prog in
    let compiled = Ir_vm.compile ~optimize:false prog in
    let interp = Interp.create m in
    let optimized = Ir_vm.compile prog in
    Ir_vm.reset compiled;
    Ir_eval.reset evaluator;
    Interp.reset interp;
    Ir_vm.reset optimized;
    let n_out = Array.length prog.Ir.outputs in
    for step = 1 to steps_per_model do
      Array.iteri
        (fun i (var : Ir.var) ->
          let v = Model_gen.random_input rng var.Ir.vty in
          Ir_vm.set_input compiled i v;
          Ir_eval.set_input evaluator i v;
          Interp.set_input interp i v;
          Ir_vm.set_input optimized i v)
        prog.Ir.inputs;
      Ir_vm.step compiled;
      Ir_eval.step evaluator;
      Interp.step interp;
      Ir_vm.step optimized;
      for o = 0 to n_out - 1 do
        let reference = Value.to_float (Ir_eval.get_output evaluator o) in
        let tag which =
          Printf.sprintf "model %d step %d output %d: evaluator vs %s" model_ix step o which
        in
        agree (tag "vm") reference (Value.to_float (Ir_vm.get_output compiled o));
        agree (tag "interpreter") reference (Value.to_float (Interp.get_output interp o));
        agree (tag "optimized") reference (Value.to_float (Ir_vm.get_output optimized o))
      done
    done
  done

let test_instrumentation_modes_agree () =
  (* Full / Branchless / Plain builds must be observably identical *)
  let rng = Rng.create 555L in
  for model_ix = 1 to 40 do
    let m = Model_gen.generate rng in
    let progs =
      List.map
        (fun mode -> Ir_vm.compile ~optimize:false (Codegen.lower ~mode m))
        [ Codegen.Full; Codegen.Branchless; Codegen.Plain ]
    in
    List.iter Ir_vm.reset progs;
    let inputs = (Codegen.lower ~mode:Codegen.Plain m).Ir.inputs in
    for step = 1 to 40 do
      let vals = Array.map (fun (v : Ir.var) -> Model_gen.random_input rng v.Ir.vty) inputs in
      List.iter
        (fun c ->
          Array.iteri (fun i v -> Ir_vm.set_input c i v) vals;
          Ir_vm.step c)
        progs;
      match progs with
      | [ full; branchless; plain ] ->
        Array.iteri
          (fun o _ ->
            let f = Value.to_float (Ir_vm.get_output full o) in
            agree
              (Printf.sprintf "model %d step %d out %d full-vs-branchless" model_ix step o)
              f
              (Value.to_float (Ir_vm.get_output branchless o));
            agree
              (Printf.sprintf "model %d step %d out %d full-vs-plain" model_ix step o)
              f
              (Value.to_float (Ir_vm.get_output plain o)))
          (Ir_vm.program full).Ir.outputs
      | _ -> assert false
    done
  done

let test_guard_chains_well_formed () =
  let rng = Rng.create 888L in
  for _ = 1 to 60 do
    let prog = Codegen.lower (Model_gen.generate rng) in
    let chains = Cftcg_symexec.Guards.probe_chains prog in
    let vm = Ir_vm.of_code (Ir_vm.prepare ~optimize:false ~branches:true prog) in
    let n_ifs = Bytes.length (Ir_vm.branches vm).Ir_vm.b_reached in
    Array.iter
      (fun chain ->
        List.iter
          (fun (if_ix, _) ->
            if if_ix < 0 || if_ix >= n_ifs then
              Alcotest.failf "guard chain references if %d of %d" if_ix n_ifs)
          chain)
      chains
  done

let test_slx_roundtrip_random () =
  let rng = Rng.create 77L in
  for _ = 1 to 200 do
    let m = Model_gen.generate rng in
    let m' = Slx.load_string (Slx.save_string m) in
    if m <> m' then Alcotest.failf "slx roundtrip broke model %s" m.Graph.model_name
  done

let test_random_models_fuzzable () =
  (* every random model supports an actual fuzzing campaign *)
  let rng = Rng.create 31337L in
  for _ = 1 to 15 do
    let m = Model_gen.generate rng in
    let prog = Codegen.lower m in
    let r =
      Cftcg_fuzz.Fuzzer.run
        ~config:{ Cftcg_fuzz.Fuzzer.default_config with Cftcg_fuzz.Fuzzer.seed = 5L }
        prog (Cftcg_fuzz.Fuzzer.Exec_budget 300)
    in
    Alcotest.(check bool) "campaign ran" true (r.Cftcg_fuzz.Fuzzer.stats.Cftcg_fuzz.Fuzzer.executions = 300)
  done

let suites =
  [ ( "random_models",
      [ Alcotest.test_case "all execution paths agree" `Slow test_exec_paths_agree;
        Alcotest.test_case "instrumentation modes agree" `Slow test_instrumentation_modes_agree;
        Alcotest.test_case "guard chains well-formed" `Quick test_guard_chains_well_formed;
        Alcotest.test_case "slx roundtrips" `Slow test_slx_roundtrip_random;
        Alcotest.test_case "fuzzable" `Slow test_random_models_fuzzable ] ) ]

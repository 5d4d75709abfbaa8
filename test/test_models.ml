(* Integration tests over the eight Table-2 benchmark models:
   structural validity, lowering in every mode, graph-interpreter vs
   compiled-code agreement, SLX round-trips, and a fuzzing smoke test
   reaching a coverage floor. *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Recorder = Cftcg_coverage.Recorder
module Models = Cftcg_bench_models.Bench_models
module Interp = Cftcg_interp.Interp
module Fuzzer = Cftcg_fuzz.Fuzzer

let models () = List.map (fun (e : Models.entry) -> (e.Models.name, Lazy.force e.Models.model)) Models.all

let test_all_valid () =
  List.iter
    (fun (name, m) ->
      match Graph.validate m with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    (models ())

let test_all_lower_all_modes () =
  List.iter
    (fun (name, m) ->
      List.iter
        (fun mode ->
          match Codegen.lower ~mode m with
          | p ->
            Alcotest.(check (result unit string))
              (Printf.sprintf "%s/%s IR valid" name (Codegen.mode_name mode))
              (Ok ()) (Ir.validate p)
          | exception Failure msg ->
            Alcotest.failf "%s/%s: %s" name (Codegen.mode_name mode) msg)
        [ Codegen.Full; Codegen.Branchless; Codegen.Plain ])
    (models ())

let test_branch_counts_positive () =
  List.iter
    (fun (e : Models.entry) ->
      let p = Codegen.lower (Lazy.force e.Models.model) in
      let branches = Recorder.branch_total p in
      let blocks = Graph.block_count (Lazy.force e.Models.model) in
      if branches < 20 then
        Alcotest.failf "%s: only %d branches — model too shallow" e.Models.name branches;
      if blocks < 20 then Alcotest.failf "%s: only %d blocks" e.Models.name blocks)
    Models.all

let test_slx_roundtrip () =
  List.iter
    (fun (name, m) ->
      let m' = Slx.load_string (Slx.save_string m) in
      Alcotest.(check bool) (name ^ " slx roundtrip") true (m = m'))
    (models ())

let random_value rng (ty : Dtype.t) =
  match ty with
  | Dtype.Bool -> Value.of_bool (Cftcg_util.Rng.bool rng)
  | ty when Dtype.is_integer ty ->
    (* mixed: small values mostly, occasional full-range *)
    if Cftcg_util.Rng.int rng 8 = 0 then
      Value.of_int ty (Cftcg_util.Rng.int_in rng (Dtype.min_int_value ty) (Dtype.max_int_value ty))
    else Value.of_int ty (Cftcg_util.Rng.int_in rng (-200) 200)
  | ty -> Value.of_float ty (Cftcg_util.Rng.float rng 300.0 -. 150.0)

let differential name m =
  let p = Codegen.lower ~mode:Codegen.Plain m in
  let compiled = Ir_vm.compile ~optimize:false p in
  let interp = Interp.create m in
  Ir_vm.reset compiled;
  Interp.reset interp;
  let rng = Cftcg_util.Rng.create 2024L in
  let n_out = Array.length p.Ir.outputs in
  for step = 1 to 500 do
    Array.iteri
      (fun i (var : Ir.var) ->
        let v = random_value rng var.Ir.vty in
        Ir_vm.set_input compiled i v;
        Interp.set_input interp i v)
      p.Ir.inputs;
    Ir_vm.step compiled;
    Interp.step interp;
    for o = 0 to n_out - 1 do
      let vc = Value.to_float (Ir_vm.get_output compiled o) in
      let vi = Value.to_float (Interp.get_output interp o) in
      if vc <> vi && not (Float.is_nan vc && Float.is_nan vi) then
        Alcotest.failf "%s: output %d diverges at step %d: compiled=%.17g interp=%.17g" name o
          step vc vi
    done
  done

let test_interp_matches_compiled () =
  List.iter (fun (name, m) -> differential name m) (models ())

let test_fuzz_smoke () =
  (* a small campaign must clear a decision-coverage floor on every
     model: guards against unreachable instrumentation *)
  List.iter
    (fun (name, m) ->
      let prog = Codegen.lower m in
      let config = { Fuzzer.default_config with Fuzzer.seed = 7L } in
      let r = Fuzzer.run ~config prog (Fuzzer.Exec_budget 3000) in
      let suite = List.map (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data) r.Fuzzer.test_suite in
      let report = Cftcg.Evaluate.replay prog suite in
      if report.Recorder.decision_pct < 30.0 then
        Alcotest.failf "%s: fuzz smoke reached only %.1f%% decision coverage" name
          report.Recorder.decision_pct;
      if r.Fuzzer.stats.Fuzzer.iterations <= 0 then Alcotest.failf "%s: no iterations" name)
    (models ())

let test_deterministic_campaigns () =
  let m = Lazy.force (List.hd Models.all).Models.model in
  let prog = Codegen.lower m in
  let run () =
    let r = Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 99L } prog
        (Fuzzer.Exec_budget 500)
    in
    List.map (fun (tc : Fuzzer.test_case) -> Bytes.to_string tc.Fuzzer.tc_data) r.Fuzzer.test_suite
  in
  Alcotest.(check (list string)) "same seed, same suite" (run ()) (run ())

let suites =
  [ ( "models.integration",
      [ Alcotest.test_case "all valid" `Quick test_all_valid;
        Alcotest.test_case "lower all modes" `Quick test_all_lower_all_modes;
        Alcotest.test_case "branch counts" `Quick test_branch_counts_positive;
        Alcotest.test_case "slx roundtrip" `Quick test_slx_roundtrip;
        Alcotest.test_case "interp = compiled" `Slow test_interp_matches_compiled;
        Alcotest.test_case "fuzz smoke" `Slow test_fuzz_smoke;
        Alcotest.test_case "deterministic campaigns" `Quick test_deterministic_campaigns ] ) ]

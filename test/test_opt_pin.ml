(* Optimizer output pins: digests of the prepared VM code
   ([Ir_vm.prepare], probe-only and branch-recording) of the
   [Codegen.lower] programs of the eight benchmark models, the
   rolling-code example and 40 fixed-seed random models. The bytecode optimizer's analyses may change representation
   or speed, but the code it emits must stay byte-identical. *)

open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Models = Cftcg_bench_models.Bench_models
module Rng = Cftcg_util.Rng

(* the program Pipeline.generate hands the fuzzer *)
let fuzz_prog m = Codegen.lower ~mode:Codegen.Full m

(* [dune runtest] runs from the build's test directory, [dune exec]
   from the repository root *)
let example_model file =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "examples" file; Filename.concat "../examples" file ]
  in
  Cftcg_model.Slx.load_file path

let add_code buf (code : Ir_vm.code) =
  let lin = Ir_vm.code_linearized code in
  let ints a =
    Array.iter (fun x -> Buffer.add_string buf (string_of_int x); Buffer.add_char buf ',') a;
    Buffer.add_char buf ';'
  in
  ints lin.Ir_linearize.l_init;
  ints lin.Ir_linearize.l_step;
  Array.iter (fun f -> Buffer.add_string buf (Printf.sprintf "%h," f)) lin.Ir_linearize.l_consts;
  Buffer.add_string buf (Printf.sprintf ";%d;" lin.Ir_linearize.l_n_regs)

let code_digest ~branches progs =
  let buf = Buffer.create 4096 in
  List.iter (fun p -> add_code buf (Ir_vm.prepare ~branches p)) progs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (name, probe-only digest, branch-recording digest) *)
let bench_pins =
  [ ("CPUTask", "fb0da65b955215d357ebba58a63ffaf3", "d9e397428e298a476c1b8913817e365c");
    ("AFC", "b926c2a51c7bd357280b42e05977b101", "8740fd327699cb9fba2d744c3bbcbbf8");
    ("TCP", "a92dc84f8547ae2a122b247144932be6", "44f96176d6971b874faf7168aa8aa8fe");
    ("RAC", "000a8a1c4caf4f344eaa0f9c4aa9206b", "30cdb7bf3a6d98ca0bb1720a69fe3495");
    ("EVCS", "a6be080e1a0568d33d21dbfcb08ee95b", "ddfdbe024ec48751ef423971cb8b539a");
    ("TWC", "f2fc9633fd7b14a8ef4daadda9aa5ece", "6b66a5b34ea0b6414b96eb3c54890d02");
    ("UTPC", "ada7ae90f9c299a24191c7d07118a82e", "5b14a7dfd6d452500c724351479c4b51");
    ("SolarPV", "f02ee48cc67edac172b7d084d81696b9", "97e39e2e24a797d5f2b3afa7b36f497b") ]

let rolling_code_pin = ("4ae2b975c9cd7a6b9f2f69fc7ef849e9", "e5e066e04502f709fb0f4a210fb16f4d")
let random_pin = ("78d0f6e697f425567edd48c1fef8b871", "3628a6b16a1f9d1cae22655f8f663ed4")

let check name progs (plain, branching) =
  Alcotest.(check string) (name ^ " probe-only code") plain (code_digest ~branches:false progs);
  Alcotest.(check string) (name ^ " branch-recording code") branching
    (code_digest ~branches:true progs)

let test_bench_models () =
  Alcotest.(check int) "every bench model pinned" (List.length Models.all) (List.length bench_pins);
  List.iter
    (fun (name, plain, branching) ->
      let e = Option.get (Models.find name) in
      check name [ fuzz_prog (Lazy.force e.Models.model) ] (plain, branching))
    bench_pins

let test_rolling_code () =
  check "rolling_code" [ fuzz_prog (example_model "rolling_code.slx.xml") ] rolling_code_pin

let test_random_models () =
  let rng = Rng.create 7331L in
  let progs = List.init 40 (fun _ -> Codegen.lower (Model_gen.generate rng)) in
  check "40 random models" progs random_pin

let suites =
  [ ( "ir_opt.pin",
      [ Alcotest.test_case "bench models" `Quick test_bench_models;
        Alcotest.test_case "rolling_code example" `Quick test_rolling_code;
        Alcotest.test_case "random models" `Quick test_random_models ] ) ]

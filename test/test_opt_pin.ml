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
  [ ("CPUTask", "33137f6c4eadf609340268f7cdd5e404", "8930430b8f8b9f3607ad4b7853ad1a68");
    ("AFC", "4963f435d61f1b5204fdcb3d8b99798d", "0539da0cee1929717ae7df22fad3b3aa");
    ("TCP", "69d85b260bfc5445f6b80f9bd023958b", "a72c1868bbbff90bf7b94d48ef0085ac");
    ("RAC", "00244a2bc61a456349573e6814f34aa4", "e9004f726f16cc33634e114b790f385a");
    ("EVCS", "4bee6aaf3489406df133b2f8b9373d78", "75e352566e2bfb1247e617ebf5d1da33");
    ("TWC", "0ac228d581592c83242a2fe3dbcedfc5", "c7f850ba5973f04b3f0ba9f1fa53a3bc");
    ("UTPC", "04d5d1522a39e74fa8763ca81ca7eaac", "6c3809f8a438a489a3bc2b1cb2ddbd1d");
    ("SolarPV", "2bf0aaa766b7c97a69ea98b82d66f1c3", "9c7b7c72f74b6fb10e4195f93a1dca00") ]

let rolling_code_pin = ("348937f823fd43cccc9511aae6ed046b", "db5edea0185ff5fb1faf99c895ab9f29")
let random_pin = ("f71d3dc1cee7fc957e5b2c1fe5ba6c75", "eac95aa97b9c70c0ce5217ff554956ac")

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

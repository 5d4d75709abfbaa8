(* Optimizer output pins: digests of the prepared VM code
   ([Ir_vm.prepare], probe-only and branch-recording) for the eight
   benchmark models, the rolling-code example and 40 fixed-seed random
   models. The bytecode optimizer's analyses may change representation
   or speed, but the code it emits must stay byte-identical. *)

open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Models = Cftcg_bench_models.Bench_models
module Rng = Cftcg_util.Rng

(* the program Pipeline.generate hands the fuzzer *)
let fuzz_prog m = Ir_opt.optimize (Codegen.lower ~mode:Codegen.Full m)

(* [dune runtest] runs from the build's test directory, [dune exec]
   from the repository root *)
let example_model file =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "examples" file; Filename.concat "../examples" file ]
  in
  Cftcg_model.Slx.load_file path

let add_code buf (code : Ir_vm.code) =
  let lin = (code :> Ir_linearize.t) in
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
  [ ("CPUTask", "546dd02fc8540a4034e96e12d88d31c4", "bf3374c6385c278d65f2e5057e3c68ee");
    ("AFC", "b926c2a51c7bd357280b42e05977b101", "8740fd327699cb9fba2d744c3bbcbbf8");
    ("TCP", "a96b0941d29713d4b9785e6f8a89ca8d", "a98f3ece3ca73e2ce9004b75ae5fcb5d");
    ("RAC", "0f1e360daefbca76bad38ba246a90e23", "8b13a824e7c00a36920e253bce798d75");
    ("EVCS", "9904fdf997172aff7ab8df64f0886520", "ce97ecf7a160214c22ed33bfffa019d1");
    ("TWC", "980b28586e67cbdf278b5ff47dcddd2c", "98972aa200d8d16ae85a415fd66a364c");
    ("UTPC", "78023c7249401d5cbb3443a1702d294b", "1b59ec49222c65c4c3584413299ecee1");
    ("SolarPV", "f02ee48cc67edac172b7d084d81696b9", "97e39e2e24a797d5f2b3afa7b36f497b") ]

let rolling_code_pin = ("11d751012dfeb21d1cf18c51a137e057", "f8d9ffb4a73a4f9de6c5700cb520af46")
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

(* Fuzzing-loop pins: digests of exec-budget [Fuzzer.run] results —
   every test case's bytes, timestamp and new-probe count, every
   failure, and the final stats — for the eight benchmark models and
   20 fixed-seed random models at the default config, plus one
   [optimize = false] and one [field_aware = false] row. How the loop
   executes its inputs may change; what a same-seed run finds must
   stay byte-identical. *)

module Codegen = Cftcg_codegen.Codegen
module Models = Cftcg_bench_models.Bench_models
module Fuzzer = Cftcg_fuzz.Fuzzer
module Rng = Cftcg_util.Rng

let add_result buf (r : Fuzzer.result) =
  List.iter
    (fun (tc : Fuzzer.test_case) ->
      Printf.bprintf buf "t%S@%h+%d;" (Bytes.to_string tc.Fuzzer.tc_data) tc.Fuzzer.tc_time
        tc.Fuzzer.tc_new_probes)
    r.Fuzzer.test_suite;
  List.iter
    (fun (f : Fuzzer.failure) ->
      Printf.bprintf buf "f%S@%h:%S;" (Bytes.to_string f.Fuzzer.f_data) f.Fuzzer.f_time
        f.Fuzzer.f_message)
    r.Fuzzer.failures;
  let s = r.Fuzzer.stats in
  Printf.bprintf buf "s%d,%d,%h,%d,%d/%d;" s.Fuzzer.executions s.Fuzzer.iterations
    s.Fuzzer.elapsed s.Fuzzer.corpus_size s.Fuzzer.probes_covered s.Fuzzer.probes_total

let digest ?(config = Fuzzer.default_config) progs ~seed ~execs =
  let buf = Buffer.create 65536 in
  List.iter
    (fun prog ->
      add_result buf
        (Fuzzer.run ~config:{ config with Fuzzer.seed } prog (Fuzzer.Exec_budget execs)))
    progs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* the program the CLI and a campaign fuzz *)
let bench_prog name =
  let e = Option.get (Models.find name) in
  (Cftcg.Pipeline.generate (Lazy.force e.Models.model)).Cftcg.Pipeline.program

let bench_pins =
  [ ("CPUTask", "8ece7e87df689913a75de393f0ce4ec2");
    ("AFC", "2a9196a4e7bede6bc8709b486c335983");
    ("TCP", "38c365f05babcceb2f3a1a2d17c2a672");
    ("RAC", "1904e3e00f655261ceaec614ed2b660b");
    ("EVCS", "ac8467123e5393b2d9f4bf3dfc240d39");
    ("TWC", "4608cdfaf54c94b2e369f9127b616dc2");
    ("UTPC", "0c879fea59adfac0b685542775c2852a");
    ("SolarPV", "1a49fb4991979a25ce30fc950f97c913") ]

let random_pin = "468994ff5857d85a15b5e7a563e7114d"
let no_opt_pin = "c3e6edcefd01f480a7c50eb5c1ea9ff6"
let blind_pin = "295be9931ee9729bce87da188153d371"

let test_bench_models () =
  Alcotest.(check int) "every bench model pinned" (List.length Models.all) (List.length bench_pins);
  List.iter
    (fun (name, pin) ->
      Alcotest.(check string) (name ^ " run") pin
        (digest [ bench_prog name ] ~seed:7L ~execs:6000))
    bench_pins

let test_random_models () =
  let rng = Rng.create 9157L in
  let progs = List.init 20 (fun _ -> Codegen.lower (Model_gen.generate rng)) in
  Alcotest.(check string) "20 random models" random_pin (digest progs ~seed:11L ~execs:1500)

let test_no_opt () =
  let config = { Fuzzer.default_config with Fuzzer.optimize = false } in
  Alcotest.(check string) "TCP+RAC, optimize = false" no_opt_pin
    (digest ~config [ bench_prog "TCP"; bench_prog "RAC" ] ~seed:13L ~execs:4000)

let test_blind () =
  let config = { Fuzzer.default_config with Fuzzer.field_aware = false } in
  Alcotest.(check string) "TCP+SolarPV, field_aware = false" blind_pin
    (digest ~config [ bench_prog "TCP"; bench_prog "SolarPV" ] ~seed:17L ~execs:4000)

let suites =
  [ ( "fuzzer.pin",
      [ Alcotest.test_case "bench models" `Quick test_bench_models;
        Alcotest.test_case "random models" `Quick test_random_models;
        Alcotest.test_case "optimize = false" `Quick test_no_opt;
        Alcotest.test_case "field_aware = false" `Quick test_blind ] ) ]

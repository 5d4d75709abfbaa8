(* Fuzzing-loop pins: digests of exec-budget [Fuzzer.run] results —
   every test case's bytes, timestamp and new-probe count, every
   failure, and the final stats — for the eight benchmark models and
   20 fixed-seed random models at the default config, plus one row
   fuzzing unoptimized code (handed in as [~code]), one
   [field_aware = false] row, one small-corpus row, one
   [max_tuples = 3] row, one [iteration_metric = false] row and one
   row with user seeds. How the loop
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

let digest ?(config = Fuzzer.default_config) ?prepare progs ~seed ~execs =
  let buf = Buffer.create 65536 in
  List.iter
    (fun prog ->
      let code = Option.map (fun prepare -> prepare prog) prepare in
      add_result buf
        (Fuzzer.run ~config:{ config with Fuzzer.seed } ?code prog (Fuzzer.Exec_budget execs)))
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
let unoptimized_pin = "c3e6edcefd01f480a7c50eb5c1ea9ff6"
let blind_pin = "295be9931ee9729bce87da188153d371"
let small_corpus_pin = "7948d0c9b98294f6c1addc05810fb446"
let short_inputs_pin = "6e9c0747655d892ade08194ef2df17ff"
let no_metric_pin = "6ccc7d733c2d4e06fcf6734811237ec7"
let user_seeds_pin = "a77f9acf73ce4dd8f988441093068eda"

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

let test_unoptimized () =
  Alcotest.(check string) "TCP+RAC, optimize = false" unoptimized_pin
    (digest
       ~prepare:(Cftcg_ir.Ir_vm.prepare ~optimize:false)
       [ bench_prog "TCP"; bench_prog "RAC" ] ~seed:13L ~execs:4000)

(* A small corpus fills after a few dozen admissions, so most of the
   run admits against a full corpus: evictions, and the best-score
   threshold that decides admission, run on every execution. *)
let test_small_corpus () =
  let config = { Fuzzer.default_config with Fuzzer.corpus_cap = 12 } in
  Alcotest.(check string) "TCP+RAC+SolarPV, corpus_cap = 12" small_corpus_pin
    (digest ~config [ bench_prog "TCP"; bench_prog "RAC"; bench_prog "SolarPV" ] ~seed:19L
       ~execs:6000)

let test_blind () =
  let config = { Fuzzer.default_config with Fuzzer.field_aware = false } in
  Alcotest.(check string) "TCP+SolarPV, field_aware = false" blind_pin
    (digest ~config [ bench_prog "TCP"; bench_prog "SolarPV" ] ~seed:17L ~execs:4000)

(* At most three model iterations per input: mutations that grow an
   input past the cap leave a child whose tail the executor ignores. *)
let test_short_inputs () =
  let config = { Fuzzer.default_config with Fuzzer.max_tuples = 3 } in
  Alcotest.(check string) "TCP+RAC, max_tuples = 3" short_inputs_pin
    (digest ~config [ bench_prog "TCP"; bench_prog "RAC" ] ~seed:23L ~execs:4000)

let test_no_metric () =
  let config = { Fuzzer.default_config with Fuzzer.iteration_metric = false } in
  Alcotest.(check string) "TCP+SolarPV, iteration_metric = false" no_metric_pin
    (digest ~config [ bench_prog "TCP"; bench_prog "SolarPV" ] ~seed:29L ~execs:4000)

(* User seeds run first and have no parent; they are random streams
   of 1 to 24 tuples drawn from the model's own layout. *)
let test_user_seeds () =
  let prog_seeds prog =
    let layout = Cftcg_fuzz.Layout.of_program prog in
    let rng = Rng.create 31L in
    List.init 6 (fun _ ->
        Bytes.concat Bytes.empty
          (List.init (1 + Rng.int rng 24) (fun _ -> Cftcg_fuzz.Layout.random_tuple_bytes layout rng)))
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun name ->
      let prog = bench_prog name in
      let config = { Fuzzer.default_config with Fuzzer.seed = 37L; seeds = prog_seeds prog } in
      add_result buf (Fuzzer.run ~config prog (Fuzzer.Exec_budget 4000)))
    [ "TCP"; "RAC"; "SolarPV" ];
  Alcotest.(check string) "TCP+RAC+SolarPV, user seeds" user_seeds_pin
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suites =
  [ ( "fuzzer.pin",
      [ Alcotest.test_case "bench models" `Quick test_bench_models;
        Alcotest.test_case "random models" `Quick test_random_models;
        Alcotest.test_case "optimize = false" `Quick test_unoptimized;
        Alcotest.test_case "field_aware = false" `Quick test_blind;
        Alcotest.test_case "corpus_cap = 12" `Quick test_small_corpus;
        Alcotest.test_case "max_tuples = 3" `Quick test_short_inputs;
        Alcotest.test_case "iteration_metric = false" `Quick test_no_metric;
        Alcotest.test_case "user seeds" `Quick test_user_seeds ] ) ]

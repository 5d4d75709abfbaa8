(* Scoring pins: digests of everything [Evaluate] reports — the
   cumulative report, the recorder's per-decision breakdown, lookup
   intervals and probe count, signal ranges and the decision series —
   for fixed-seed exec-budget suites on the eight benchmark models and
   40 fixed-seed random models. The scores behind Table 3 must not
   move when the execution engine under them changes. *)

module Codegen = Cftcg_codegen.Codegen
module Models = Cftcg_bench_models.Bench_models
module Fuzzer = Cftcg_fuzz.Fuzzer
module Recorder = Cftcg_coverage.Recorder
module Evaluate = Cftcg.Evaluate
module Rng = Cftcg_util.Rng

let timed_suite prog ~seed ~execs =
  let config = { Fuzzer.default_config with Fuzzer.seed } in
  let result = Fuzzer.run ~config prog (Fuzzer.Exec_budget execs) in
  List.map
    (fun (tc : Fuzzer.test_case) -> (tc.Fuzzer.tc_data, tc.Fuzzer.tc_time))
    result.Fuzzer.test_suite

let add_scores buf prog timed =
  let suite = List.map fst timed in
  let r = Evaluate.replay prog suite in
  Printf.bprintf buf "%h,%h,%h,%d/%d,%d/%d,%d/%d,%d/%d,%h;" r.Recorder.decision_pct
    r.Recorder.condition_pct r.Recorder.mcdc_pct r.Recorder.outcomes_covered
    r.Recorder.outcomes_total r.Recorder.conditions_covered r.Recorder.conditions_total
    r.Recorder.mcdc_covered r.Recorder.mcdc_total r.Recorder.lookup_covered
    r.Recorder.lookup_total r.Recorder.lookup_pct;
  let recorder = Evaluate.record prog suite in
  Buffer.add_string buf (Recorder.detailed recorder);
  List.iter
    (fun (path, hit, n) -> Printf.bprintf buf "%s:%d/%d;" path hit n)
    (Recorder.lookup_intervals recorder);
  Printf.bprintf buf "probes %d;" (Recorder.probes_covered recorder);
  List.iter
    (fun (name, lo, hi) -> Printf.bprintf buf "%s=[%h,%h];" name lo hi)
    (Evaluate.signal_ranges prog suite);
  List.iter (fun (t, d) -> Printf.bprintf buf "%h:%h;" t d) (Evaluate.decision_series prog timed)

let digest progs ~seed ~execs =
  let buf = Buffer.create 65536 in
  List.iter (fun prog -> add_scores buf prog (timed_suite prog ~seed ~execs)) progs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let bench_pins =
  [ ("CPUTask", "85fb6d7dd2f8444928daaf4caf3b78b6");
    ("AFC", "3413dd5ad23b98d11a0fc95809774065");
    ("TCP", "5511637f824a6ad80609f4b868a7c3c8");
    ("RAC", "490c2db31164f704d2aaaea83c40a8c4");
    ("EVCS", "3a69fb9a8bff1fc7feb0365c5c21a57d");
    ("TWC", "e98676e0b1e284fa55f025d74f58717d");
    ("UTPC", "848fff95a9bac0e3de205f249bf69116");
    ("SolarPV", "2a0f478a67111af21d9a43344f417efd") ]

let random_pin = "ccef04104b3c297822879bf56efaf20c"

let test_bench_models () =
  Alcotest.(check int) "every bench model pinned" (List.length Models.all) (List.length bench_pins);
  List.iter
    (fun (name, pin) ->
      let e = Option.get (Models.find name) in
      let prog = (Cftcg.Pipeline.generate (Lazy.force e.Models.model)).Cftcg.Pipeline.program in
      Alcotest.(check string) (name ^ " scores") pin (digest [ prog ] ~seed:3L ~execs:4000))
    bench_pins

let test_random_models () =
  let rng = Rng.create 4242L in
  let progs = List.init 40 (fun _ -> Codegen.lower (Model_gen.generate rng)) in
  Alcotest.(check string) "40 random models scores" random_pin (digest progs ~seed:5L ~execs:400)

let suites =
  [ ( "evaluate.pin",
      [ Alcotest.test_case "bench models" `Quick test_bench_models;
        Alcotest.test_case "random models" `Quick test_random_models ] ) ]

open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Recorder = Cftcg_coverage.Recorder
module Layout = Cftcg_fuzz.Layout
module Tools = Cftcg_baselines.Tools

type generated = {
  program : Ir.program;
  layout : Layout.t;
}

let span = Cftcg_obs.Trace.with_span

let generate ?(mode = Codegen.Full) m =
  span "pipeline.generate" @@ fun () ->
  let program = Codegen.lower ~mode m in
  { program; layout = Layout.of_program program }

type campaign = {
  gen : generated;
  fuzz : Fuzzer.result;
  coverage : Recorder.report;
}

let run_campaign ?(config = Fuzzer.default_config) ?(mode = Codegen.Full) ?coverage_series m
    budget =
  let gen = generate ~mode m in
  (match coverage_series with
  | Some s -> Cftcg_obs.Series.set_probes_total s gen.program.Ir.n_probes
  | None -> ());
  let fuzz = Fuzzer.run ~config ?coverage_series gen.program budget in
  let scoring_prog =
    (* score on the fully instrumented build even if the campaign ran
       on a reduced one *)
    match mode with
    | Codegen.Full -> gen.program
    | Codegen.Branchless | Codegen.Plain -> Codegen.lower ~mode:Codegen.Full m
  in
  let suite = List.map (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data) fuzz.Fuzzer.test_suite in
  { gen; fuzz; coverage = Evaluate.replay scoring_prog suite }

module Campaign = Cftcg_campaign.Campaign

type parallel_campaign = {
  pc_gen : generated;
  pc_result : Campaign.result;
  pc_coverage : Recorder.report;
}

let run_parallel_campaign ?(config = Campaign.default_config) ?(mode = Codegen.Full) m =
  let gen = generate ~mode m in
  let result = Campaign.run ~config gen.program in
  let scoring_prog =
    match mode with
    | Codegen.Full -> gen.program
    | Codegen.Branchless | Codegen.Plain -> Codegen.lower ~mode:Codegen.Full m
  in
  { pc_gen = gen; pc_result = result; pc_coverage = Evaluate.replay scoring_prog result.Campaign.suite }

let score_tool (tool : Tools.t) m ~seed ~time_budget =
  let outcome = tool.Tools.generate m ~seed ~time_budget in
  let prog = Codegen.lower ~mode:Codegen.Full m in
  let suite = List.map (fun (tc : Tools.test_case) -> tc.Tools.data) outcome.Tools.suite in
  (outcome, Evaluate.replay prog suite)

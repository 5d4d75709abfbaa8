(** End-to-end CFTCG pipeline (paper Figure 2).

    [Model Parser → Schedule Convert → Branch Instrument →
    Code Synthesis → Fuzz Driver Generation → Model Oriented
    Fuzzing Loop], packaged as one call each for generation and for
    campaign execution. *)

open Cftcg_model
open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Recorder = Cftcg_coverage.Recorder

type generated = {
  program : Ir.program;  (** instrumented, scheduled, lowered *)
  layout : Cftcg_fuzz.Layout.t;  (** fuzz driver field layout *)
}

val generate : ?mode:Codegen.mode -> Graph.t -> generated
(** Fuzzing Code Generation: parse/validate, schedule, instrument,
    synthesize — [program] is exactly [Codegen.lower ~mode m]. The
    "Maximize Execution Speed" objective is met later, by the one
    bytecode optimizer {!Cftcg_ir.Ir_vm.prepare} runs when a fuzzer
    prepares this program's code. The C fuzz code and driver are not
    built here: {!Cftcg_ir.Cemit.emit_program} and
    {!Cftcg_ir.Cemit.emit_fuzz_driver} emit them from [program] on
    demand. *)

type campaign = {
  gen : generated;
  fuzz : Fuzzer.result;
  coverage : Recorder.report;  (** replayed on the instrumented program *)
}

val run_campaign :
  ?config:Fuzzer.config -> ?mode:Codegen.mode ->
  ?coverage_series:Cftcg_obs.Series.t -> Graph.t -> Fuzzer.budget -> campaign
(** Generates, fuzzes, and scores one model in one call.
    [coverage_series] is handed to {!Fuzzer.run} (Figure-7
    coverage-over-time recording); its [probes_total] is filled in
    from the lowered program. *)

module Campaign = Cftcg_campaign.Campaign

type parallel_campaign = {
  pc_gen : generated;
  pc_result : Campaign.result;  (** merged corpus, per-epoch history, failures *)
  pc_coverage : Recorder.report;  (** the merged suite replayed on the Full build *)
}

val run_parallel_campaign :
  ?config:Campaign.config -> ?mode:Codegen.mode -> Graph.t -> parallel_campaign
(** Generates and runs a multi-worker ensemble campaign
    ({!Cftcg_campaign.Campaign}): N fuzzing domains in epochs with
    corpus merge/redistribution between epochs, optional on-disk
    persistence and resume, and a telemetry event stream. *)

val score_tool :
  Cftcg_baselines.Tools.t -> Graph.t -> seed:int64 -> time_budget:float ->
  Cftcg_baselines.Tools.outcome * Recorder.report
(** Runs any tool and replays its suite on the Full-instrumented
    program — the shared scoring path used by every experiment. *)

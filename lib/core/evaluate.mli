(** Shared coverage-replay harness.

    All tools are scored the same way: their emitted test cases are
    replayed on {!Ir_vm} through the fully instrumented program and
    the Decision / Condition / MCDC metrics are read off one recorder
    — the equivalent of the paper's CSV-into-Simulink-coverage
    pipeline. Scoring always runs unoptimized bytecode, so any
    variable read back is exact. *)

open Cftcg_ir
module Recorder = Cftcg_coverage.Recorder

val record : ?max_tuples:int -> Ir.program -> Bytes.t list -> Recorder.t
(** Replays a suite (order irrelevant) into a fresh recorder, for
    callers that want more than the summary report (per-decision
    breakdown, HTML report, uncovered outcomes). [max_tuples] caps
    iterations per test case (default 4096). *)

val replay : ?max_tuples:int -> Ir.program -> Bytes.t list -> Recorder.report
(** [Recorder.report (record prog suite)]: cumulative coverage. *)

val decision_series :
  ?max_tuples:int -> Ir.program -> (Bytes.t * float) list -> (float * float) list
(** [(time, decision_pct)] after each test case, with cases sorted by
    timestamp — the data behind Figure 7's coverage-vs-time plots. *)

val signal_ranges :
  ?max_tuples:int -> Ir.program -> Bytes.t list -> (string * float * float) list
(** Signal range coverage (Simulink's "signal range" report): the
    [(name, min, max)] observed for every output and state variable
    across the suite. Variables never written keep their reset
    value 0. *)

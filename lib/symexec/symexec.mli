(** Constraint-driven test generation — the SLDV stand-in.

    Simulink Design Verifier turns each coverage objective into a
    constraint problem over a bounded unrolling of the model and
    solves it formally. This module reproduces that {e profile} with
    a search-based solver: each uncovered probe becomes a target, the
    model is unrolled to an increasing bound, and an
    alternating-variable search minimizes an
    approach-level + branch-distance fitness computed from the guard
    chain ({!Guards}) and the distance reports of the executing
    program. Like the real SLDV it excels at shallow combinational
    objectives, degrades as objectives need deeper iteration
    sequences, and gives up when the bound/budget is exhausted —
    the behaviour the paper observes on state-heavy models (§4).

    The substitution (search instead of SAT/SMT) is recorded in
    DESIGN.md; both are bounded constraint solvers over the same
    objectives, differing in completeness at equal budget. *)

open Cftcg_ir

type config = {
  seed : int64;
  unroll_bounds : int list;
      (** increasing loop-unrolling depths, e.g. [[1; 2; 4; 8; 16]];
          each at least 1 ({!run} raises [Invalid_argument] otherwise) *)
  moves_per_target : int;  (** search moves per objective per bound *)
}

val default_config : config

type test_case = {
  data : Bytes.t;
  time : float;
      (** under {!Time_budget}: wall seconds since solver start; under
          {!Exec_budget}: the execution index on the virtual clock *)
}

type budget =
  | Time_budget of float  (** wall-clock seconds — paced on [gettimeofday] *)
  | Exec_budget of int
      (** maximum executions (one per candidate input). The solver
          never reads the wall clock under this budget: pacing,
          escalation and timestamps all run off the execution
          counter, so same-seed runs are byte-identical — the
          determinism discipline campaigns pin. *)

type result = {
  suite : test_case list;  (** chronological *)
  executions : int;
  targets_total : int;  (** the targets this run considered (every probe for one shard) *)
  targets_solved : int;
      (** of those, the targets observed covered by the time the solver
          finished considering them — solved directly, covered
          incidentally by another target's search, or already in
          [initial_coverage] *)
  probes_covered : int;  (** every probe, [initial_coverage] included *)
}

val prepare_code : Ir.program -> Ir_vm.code
(** The unoptimized, branch-recording code {!run} executes. Prepare it
    once and pass it as [?code] to every run over the same program:
    it is immutable and runs share it read-only, across domains too. *)

val shard_targets : ?shard:int * int -> ?initial_coverage:Bytes.t -> Ir.program -> int list
(** The targets {!run} considers, in the order it considers them:
    every probe shallow-first (fewest guards first) for the default
    single shard [(0, 1)]; for shard [(k, n)] with [n > 1], the
    initially-uncovered probes whose rank in that order is [k] mod
    [n]. The [n] shards of one coverage map are disjoint, and together
    they hold every initially-uncovered probe. *)

val run :
  ?config:config ->
  ?initial_coverage:Bytes.t ->
  ?shard:int * int ->
  ?code:Ir_vm.code ->
  ?chains:Guards.chain array ->
  ?should_stop:(unit -> bool) ->
  Ir.program ->
  budget ->
  result
(** Runs on a fully instrumented program ([Codegen.Full]).
    [initial_coverage] (a probe bitmap, nonzero = already covered)
    removes objectives another generator already hit — the hook the
    hybrid campaign phase and the CFTCG+solver baseline use.

    [shard] (default [(0, 1)]) restricts the run to
    {!shard_targets}: a campaign splits one phase into [n] runs with
    disjoint targets, each with its own seed and budget, that may run
    in parallel. The single shard is the unsharded solver, byte for
    byte. [code] ({!prepare_code}) and [chains] ({!Guards.probe_chains})
    are prepared per run when absent; both must come from [prog].

    [should_stop] is polled wherever the budget is: once it returns
    [true] the run stops and returns what it found so far. When absent
    it is never called, so the same-seed transcript is untouched. *)

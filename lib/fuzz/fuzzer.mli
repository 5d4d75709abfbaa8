(** The model-oriented fuzzing loop (paper §3.2).

    An in-process, coverage-guided loop in the LibFuzzer mold,
    specialized for model programs:

    - the fuzz driver splits each input into inport tuples and runs
      one model iteration per tuple ({!Layout});
    - mutations are field-aware over tuples ({!Mutate}, Table 1);
    - corpus scheduling uses the {e Iteration Difference Coverage}
      metric of Algorithm 1 — inputs whose per-iteration branch sets
      keep changing are preferred over inputs that settle into one
      path;
    - any input that lights a previously-unseen flat probe is emitted
      as a timestamped test case.

    The three model-oriented ingredients (field-aware mutation,
    iteration metric, full model-level instrumentation) can be
    switched off individually for the paper's Figure 8 baseline and
    for ablations. *)

open Cftcg_ir

(** The execution backend: {!Ir_linearize} bytecode in {!Ir_vm}'s
    dispatch loop, feeding the fuzzer a dirty-probe list so coverage
    accounting is proportional to probes fired. It is the only
    backend; the type survives as {!make_executor}'s [~backend] label
    and selects nothing. *)
type backend = Vm

type config = {
  seed : int64;
  max_tuples : int;  (** cap on model iterations per input *)
  corpus_cap : int;
  field_aware : bool;  (** Table-1 mutations vs byte-blind *)
  iteration_metric : bool;  (** Algorithm 1 metric vs plain new-coverage *)
  ranges : (string * float * float) list;
      (** tester-specified inport value ranges (paper §5); mutation
          and generation stay inside them *)
  seeds : Bytes.t list;
      (** seed corpus executed before random exploration (existing
          CSV test cases, previous campaigns, a hybrid campaign's
          solver-produced inputs). Seed replay is clipped to the exec
          budget like the main loop, so a run never spends more than
          its {!Exec_budget} even when the seed list is larger *)
  use_dictionary : bool;
      (** harvest comparison constants from the generated code and
          use them in value mutations (default true) *)
  optimize : bool;
      (** run {!Ir_opt.optimize_bytecode} on the bytecode (default
          true; not consulted when {!run} is handed prepared code).
          Same campaigns either way — CLI [--no-opt] is the escape hatch *)
  batch : int;
      (** lanes of the batched lockstep VM ({!Ir_vm_batch}) executed
          per dispatch (default 8; clamped to [1 .. draft_size]; [1]
          runs scalar). The scheduler drafts children in fixed-size generations and
          replays coverage in draft order, so same-seed campaigns are
          byte-identical across batch settings — batching only buys
          throughput. Lockstep only pays off when lanes mostly agree
          at branches, so after a fixed warm-up the run inspects the
          batched VM's divergence counters and permanently falls back
          to scalar execution if the model splits lanes more than
          once per batched step on average. The decision is a pure
          function of seed and bytecode — still deterministic, still
          byte-identical *)
}

val default_config : config

val draft_size : int
(** Children drafted per scheduler generation (16). Constant across
    batch settings — the batch width only controls how many lanes
    execute a generation together — which is what pins the RNG stream
    and corpus admission order, keeping campaigns byte-identical from
    [batch = 1] to [batch = draft_size]. *)

type budget =
  | Time_budget of float  (** seconds of wall clock *)
  | Exec_budget of int  (** number of inputs executed *)
  | Wall_budget of { max_execs : int; max_seconds : float }
      (** an {!Exec_budget} with a hard wall-clock ceiling: the run
          ends at whichever limit is hit first, so a stalled target
          cannot hang the campaign. Timestamps and [elapsed] stay on
          the {!Exec_budget} virtual clock — when the deadline does
          not fire, the run is byte-identical to
          [Exec_budget max_execs] with the same seed. *)

type test_case = {
  tc_data : Bytes.t;
  tc_time : float;
      (** seconds since campaign start under a {!Time_budget}; the
          execution index under an {!Exec_budget} or {!Wall_budget}
          (a virtual clock, so same-seed exec-budget runs are
          byte-identical) *)
  tc_new_probes : int;  (** previously-unseen cells this input lit *)
}

type failure = {
  f_data : Bytes.t;  (** the violating input *)
  f_time : float;
  f_message : string;  (** the Assertion block's failure message *)
}

type stats = {
  executions : int;  (** fuzzer inputs run *)
  iterations : int;  (** total model steps across all inputs *)
  elapsed : float;
      (** wall-clock seconds under a {!Time_budget}; the execution
          count under an {!Exec_budget} or {!Wall_budget} (virtual
          clock) *)
  corpus_size : int;
  probes_covered : int;
  probes_total : int;
}

type result = {
  test_suite : test_case list;  (** chronological *)
  failures : failure list;
      (** first input to violate each Assertion block (the fuzzing
          oracle), chronological *)
  stats : stats;
}

val run :
  ?config:config ->
  ?code:Ir_vm.code ->
  ?on_test_case:(test_case -> unit) ->
  ?on_progress:(stats -> unit) ->
  ?progress_every:int ->
  ?should_stop:(unit -> bool) ->
  ?coverage_series:Cftcg_obs.Series.t ->
  Ir.program -> budget -> result
(** Runs one campaign on an instrumented program (normally lowered
    with [Codegen.Full]; the Fuzz-Only baseline passes a
    [Branchless] program and [field_aware = false]).

    Orchestrator hooks: [on_progress] receives a stats snapshot every
    [progress_every] executions (default 1024); [should_stop] is a
    cooperative stop check polled once per loop iteration — when it
    returns [true] the run ends early with whatever was found (used by
    multi-worker campaigns to enforce a shared global budget). Neither
    hook perturbs the RNG stream, so enabling them does not change
    what a run finds.

    Code: the run executes [code] when given — it must have been
    prepared from [prog] itself (a different program raises
    [Invalid_argument]), and then [config.optimize] is not consulted.
    Without it the run calls {!Ir_vm.prepare} once and builds both
    the batched executor and its scalar fallback from that one code,
    so the optimizer runs at most once per run. A campaign passes the
    code it prepared at start, so its workers never optimize.

    Observability: when {!Cftcg_obs.Metrics.collecting} is on, the run
    maintains per-strategy effectiveness counters (picked / new
    coverage / kept — Table 1), execution totals and gauges, and
    sampled timing histograms in the default metrics registry.
    [coverage_series] records a coverage-over-time point (Figure 7)
    each time fresh probes are covered. All instrumentation is
    observation-only — it never feeds back into the RNG, scheduling or
    corpus decisions, so a run with observability on is byte-identical
    to the same seed with it off. *)

val replay_metric : ?config:config -> Ir.program -> Bytes.t -> int
(** Executes one input and returns its Iteration Difference Coverage
    metric — Algorithm 1 exactly, exposed for tests and examples. *)

val make_executor :
  ?optimize:bool ->
  ?code:Ir_vm.code ->
  backend:backend ->
  layout:Layout.t ->
  prog:Ir.program ->
  g_total:Bytes.t ->
  max_tuples:int ->
  use_metric:bool ->
  unit ->
  fresh_cells:int list ref ->
  Bytes.t ->
  int * int * int
(** The fuzzer's inner loop, as used by {!run}: executes one input
    against the campaign-global coverage bytes [g_total] and returns
    (iteration-difference metric, newly covered probes, model
    iterations). It runs a fresh {!Ir_vm} instance over [code] when given (prepared from [prog];
    [optimize] is then not consulted), else over
    [Ir_vm.prepare ~optimize prog]. The set-up happens once at the
    [()] application — apply through [()] once and reuse the result
    per input; the explicit [unit] stops omitted optional arguments
    from silently deferring the set-up to every input. Exposed for
    benchmarks and tooling that need per-execution costs without a
    whole campaign. *)

val make_batch_executor :
  ?optimize:bool ->
  ?code:Ir_vm.code ->
  k:int ->
  layout:Layout.t ->
  prog:Ir.program ->
  g_total:Bytes.t ->
  max_tuples:int ->
  use_metric:bool ->
  unit ->
  Bytes.t array ->
  int * int * int
(** Batched counterpart of {!make_executor}: each call executes up to
    [k] inputs in lockstep through {!Ir_vm_batch} with the campaign's
    full coverage accounting (iteration metric, fresh replay against
    [g_total] in input order) and returns the summed
    (metric, fresh, iterations). [code] and [optimize] as in
    {!make_executor}. The trailing [unit] closes the set-up
    partial application — apply through [()] once and
    reuse the returned function per chunk. The number the batch
    scheduler's throughput gate measures. *)

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
    dispatch loop, feeding the fuzzer each step's probe set as
    bit-words, so Algorithm 1's accounting is an XOR and a popcount
    per 32 probes. It is the only
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
  batch : int;
      (** not consulted: {!run} executes one input at a time. Kept only
          because the repository benchmark still reads it *)
}

val default_config : config

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
  iterations : int;
      (** total model steps across all inputs, counted as if each ran
          from reset: steps that prefix resume and suffix rejoin skip
          are included *)
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
    [Invalid_argument]). Without it the run calls {!Ir_vm.prepare}
    once, so the one bytecode optimizer runs at most once per run. A
    campaign passes the code it prepared at start, so its workers
    never optimize. There is no switch for unoptimized fuzzing: pass
    [~code:(Ir_vm.prepare ~optimize:false prog)] — same-seed runs find
    the same suite either way.

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
    metric — Algorithm 1 exactly, exposed for tests and examples. A
    one-shot helper: every call prepares [prog]'s code afresh
    (unoptimized, since one input does not repay the optimizer and
    the metric does not depend on it). To replay many inputs, build a
    {!make_executor} once. *)

val make_executor :
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
(** The fuzzer's inner loop from reset ({!exec} over an {!executor}):
    executes one input against the campaign-global coverage bytes
    [g_total] and returns (iteration-difference metric, newly covered
    probes, model iterations). It runs a fresh {!Ir_vm} instance over [code] when
    given (prepared from [prog]), else over [Ir_vm.prepare prog] —
    optimized; pass [~code:(Ir_vm.prepare ~optimize:false prog)] for
    unoptimized execution. The set-up happens once at the
    [()] application — apply through [()] once and reuse the result
    per input; the explicit [unit] stops omitted optional arguments
    from silently deferring the set-up to every input. Exposed for
    benchmarks and tooling that need per-execution costs without a
    whole campaign. *)

(** {1 Parent-prefix resume and suffix rejoin}

    Every Table 1 mutation except shuffle rewrites an input from some
    tuple onward, so a child usually repeats its parent's first
    tuples exactly. {!run} does not run that shared prefix again.
    Each corpus entry keeps a {e trajectory} of its from-reset
    execution: checkpoints holding, after a step, the VM's carried
    registers ({!Ir_vm.save_carried}), that step's probe bit-words
    and Algorithm 1's metric summed through it, plus the metric summed
    over the whole run. An entry records its trajectory by running
    once more, from reset, the first time it is drafted as a parent;
    an entry never drafted records nothing. An
    input of up to [c] steps keeps a checkpoint after every step, a
    longer one after every [ceil (n / c)]-th, where [c] (at most 32)
    is as many checkpoints as keep each of the trajectory's arrays
    within 256 words, the largest block the minor heap takes.

    A child whose first [s >= 1] whole tuples equal its parent's ([s]
    capped by both lengths and [max_tuples]) starts at the last
    checkpointed step [k <= s]: it restores the registers saved after
    step [k - 1], takes that step's bit-words as the previous step's
    probe set and that step's metric sum as its starting metric, and
    runs steps [k ..] through the same word loop as a run from reset.
    The result is the from-reset result, bit for bit: the parent set
    every probe of the prefix in the coverage bytes when it ran, so
    the prefix holds no fresh cell; each metric term reads only two
    consecutive steps; and only carried registers reach later steps.

    Most mutations also leave the {e end} of the parent in place: a
    field rewrite keeps every tuple after it, and inserting, erasing
    or copying tuples keeps the parent's tail shifted by
    [delta = n - t_n], where [n] and [t_n] are the child's and the
    parent's step counts. Comparing the child's first [n] tuples with
    the parent's first [t_n] from their ends gives [k] shared whole
    tuples, so for every child step [t >= n - k - 1], child steps
    [t + 1 ..] read exactly the tuples parent steps [t - delta + 1 ..]
    read. After each such step [t < n - 1] whose [p = t - delta >= 0]
    is a checkpointed parent step, the child compares that step's
    probe bit-words and its carried registers ({!Ir_vm.carried_equal},
    bit for bit) with the checkpoint's. When both match, the child
    {e rejoins} its parent: it adds the parent's metric after step [p]
    to its own and stops, reporting [n] iterations. The result is
    still the from-reset result, bit for bit: from equal carried
    registers on equal tuples the remaining steps fire the parent's
    probes, all of which the parent set in the coverage bytes, so they
    hold no fresh cell; and each remaining metric term reads two
    consecutive steps, the first of them step [t], whose set equals
    step [p]'s. So the metric, fresh count, fresh cells and their
    order, iterations and coverage bytes afterwards all equal a run
    from reset. A run with no trajectory ({!exec}, {!record}) compares
    one integer per step and never rejoins.

    The functions below expose that path for tests and tools. *)

type executor
(** One VM instance over prepared code, with its probe buffers and
    the coverage bytes it accounts against. *)

type trajectory
(** The per-step record of one input's from-reset execution. *)

val executor :
  ?code:Ir_vm.code ->
  layout:Layout.t ->
  prog:Ir.program ->
  g_total:Bytes.t ->
  max_tuples:int ->
  use_metric:bool ->
  unit ->
  executor
(** As {!make_executor}'s set-up: [code] as there. *)

val exec : executor -> fresh_cells:int list ref -> Bytes.t -> int * int * int
(** Runs one input from reset: (metric, fresh probes, iterations),
    with the fresh cells pushed onto [fresh_cells], latest first. *)

val record : executor -> Bytes.t -> trajectory
(** Runs an input from reset and returns its trajectory. The input
    must already have run against this executor's coverage bytes
    (through {!exec} or {!exec_child}), which it then leaves as they
    are; otherwise raises [Invalid_argument]. *)

val resume_step : executor -> parent:Bytes.t -> trajectory -> Bytes.t -> int
(** [resume_step x ~parent traj child]: the step a child of [parent]
    (whose trajectory is [traj]) resumes at — the last checkpointed
    step within the whole tuples they share from the start, capped by
    both lengths and [max_tuples]; [0] runs from reset. *)

val exec_child :
  executor -> fresh_cells:int list ref -> parent:Bytes.t -> trajectory -> Bytes.t -> int * int * int
(** [exec_child x ~fresh_cells ~parent traj child] runs [child] from
    step [resume_step x ~parent traj child] until it ends or rejoins
    [parent]'s trajectory, as {!run} does, and returns exactly what
    {!exec} would: the same metric, fresh count, fresh cells in the
    same order, iterations, and coverage bytes afterwards. *)

val rejoined : executor -> int
(** The model steps the last run on this executor skipped by
    rejoining its parent's trajectory; [0] when it ran to its end. *)

val make_batch_executor :
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
(** {!make_executor} over an array: each call runs up to [k] inputs
    (more raises [Invalid_argument]) in input order against [g_total]
    and returns the summed (metric, fresh, iterations). [code] as in
    {!make_executor}; apply through [()] once and
    reuse the result per call. Kept only for the repository
    benchmark's [fuzzer.batch_exec_us] row. *)

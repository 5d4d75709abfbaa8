(** Parallel ensemble fuzzing orchestrator.

    Runs N concurrent fuzzing workers (OCaml 5 [Domain]s) over one
    instrumented program, in {e epochs} — the in-process analogue of
    LibFuzzer's [-jobs/-workers] fork mode:

    - each worker runs {!Fuzzer.run} under an execution budget with
      its own RNG stream, split from the campaign master seed per
      (epoch, worker) slot;
    - between epochs the coordinator {e merges} worker corpora:
      every input that found coverage is replayed, deduplicated by
      probe-set fingerprint (two inputs covering the same probe set
      collide), keeping the representative with the best Iteration
      Difference Coverage metric; the merged corpus is redistributed
      to every worker as the next epoch's seed corpus;
    - the campaign stops when the global execution budget is spent,
      when every probe is covered, or when coverage has plateaued for
      a configurable number of epochs.

    {b Hybrid concolic phase.} With [hybrid] set, a plateau does not
    stop the campaign: the still-uncovered probes go to the bounded
    {!Cftcg_symexec.Symexec} solver under a deterministic exec budget,
    split into one target shard per live job and solved in parallel
    (shard 0 on the coordinator, the others in their own domains);
    the coordinator then absorbs the solved inputs into the
    merged corpus (fingerprint-deduped like any epoch merge, so they
    reach every worker as next-epoch seeds), resets the stall counter
    and resumes fuzzing — alternating until the solver closes zero
    targets, its rounds are spent, or the model is fully covered.
    Solver executions are charged against [total_execs] (and a
    scheduler grant) like fuzzing executions.

    With an optional {!Corpus_store} directory attached, the merged
    corpus and a manifest (coverage bitmap, cumulative executions,
    epoch counter) are persisted after every epoch, so a killed
    campaign resumes exactly where it stopped ([resume = true]).

    Workers run under execution budgets and therefore on the
    {!Fuzzer} virtual clock, and the merge step is order-independent,
    so a campaign's outcome is a deterministic function of
    (program, config) — independent of domain scheduling. The
    exceptions are [stop_on_full] (once some worker covers
    everything, the others are cut short at a scheduling-dependent
    point; coverage is complete either way) and the wall-clock
    deadlines [max_runtime] / [epoch_deadline], which by nature
    depend on real time.

    {b Fault tolerance.} A worker domain that raises does not bring
    the campaign down: the coordinator joins every domain, salvages
    the surviving workers' results, emits {!Telemetry.Worker_crash}
    and {!Telemetry.Failure} events, and applies [on_worker_crash].
    Because only real executions are charged against the budget, a
    crashed worker's unspent slice is automatically redistributed
    over the following epochs. Corpus persistence retries transient
    I/O errors with backoff (inside {!Corpus_store}) and, if an
    operation still fails, skips it for the epoch and re-persists on
    the next one — the in-memory corpus is authoritative. *)

open Cftcg_ir
module Fuzzer = Cftcg_fuzz.Fuzzer

type crash_policy =
  | Abort  (** join all domains, then re-raise as {!Worker_crashed} *)
  | Degrade
      (** drop the crashed worker (never below one) and continue the
          campaign with the survivors *)

exception Worker_crashed of { worker : int; epoch : int; message : string }
(** Raised by {!run} under the {!Abort} policy. All domains have been
    joined and the telemetry sink closed before this escapes — no
    resources leak. *)

type hybrid = {
  solver_execs : int;
      (** solver exec budget per phase, clipped to what is left of
          [total_execs]; a {!Cftcg_symexec.Symexec.Exec_budget}, so
          the phase never reads the wall clock *)
  solver_rounds : int;  (** maximum solver phases per campaign *)
  solver : Cftcg_symexec.Symexec.config;
      (** unroll bounds and per-target move budget; [seed] is
          re-derived per (epoch, round, shard) from the campaign seed *)
}

val default_hybrid : hybrid
(** 10k executions per phase, at most 4 phases,
    {!Cftcg_symexec.Symexec.default_config} search parameters. *)

type stop_reason =
  | Full_coverage  (** every probe covered ([stop_on_full]) *)
  | Plateau
      (** coverage stalled for [plateau_epochs] epochs — and, on a
          hybrid campaign, the solver phases are exhausted too *)
  | Dead_workers  (** two consecutive epochs with every worker crashed *)
  | Budget  (** [total_execs] spent *)
  | Epoch_cap  (** [max_epochs] reached *)
  | Deadline  (** [max_runtime] wall deadline passed *)

val stop_reason_string : stop_reason -> string
(** Stable lowercase identifier (["full_coverage"], ["plateau"], …)
    for logs, status JSON and the CLI summary. *)

type config = {
  jobs : int;  (** concurrent workers (>= 1) *)
  seed : int64;  (** campaign master seed; worker streams split from it *)
  total_execs : int;
      (** global execution budget across all workers and epochs;
          [max_int] for none (a campaign bounded by [max_runtime]) *)
  execs_per_epoch : int;  (** per-worker executions between corpus syncs *)
  plateau_epochs : int;  (** stop after this many epochs without new coverage *)
  max_epochs : int;  (** hard epoch cap; 0 = until budget exhausted *)
  seed_cap : int;  (** max corpus entries redistributed per epoch (metric-best first) *)
  stop_on_full : bool;
      (** end the campaign (and cut workers short) once every probe is
          covered; switch off for strictly deterministic runs *)
  fuzzer : Fuzzer.config;
      (** per-worker loop configuration; [seed] is overridden per
          worker, [seeds] only seeds the initial corpus *)
  corpus_dir : string option;  (** attach an on-disk {!Corpus_store} *)
  store : Corpus_store.t option;
      (** attach an already-open store handle instead; takes precedence
          over [corpus_dir]. Lets several campaigns share one sharded
          store ([cftcg serve] does) *)
  resume : bool;  (** restore epoch/execution accounting from the manifest *)
  sink : Telemetry.sink;
  on_worker_crash : crash_policy;  (** default {!Degrade} *)
  max_runtime : float option;
      (** wall-clock ceiling (seconds) on the whole campaign: no new
          epoch starts past the deadline, and workers of the running
          epoch get the remaining time as their {!Fuzzer.Wall_budget}
          ceiling. [None] (the default) keeps the campaign purely on
          the virtual clock — byte-identical same-seed runs *)
  epoch_deadline : float option;
      (** wall-clock ceiling (seconds) per worker epoch run, so one
          stalled target cannot wedge an epoch; [None] by default *)
  job : string option;
      (** correlation id carried by every {!Cftcg_obs.Log} line,
          {!Cftcg_obs.Trace} span and post-mortem dump this campaign
          produces. [cftcg serve] mints one per submitted job; local
          CLI runs mint a [fuzz-<pid>] id; [None] (the default) logs
          without a job field. Purely observational — never affects
          campaign results *)
  hybrid : hybrid option;
      (** [Some _] turns the plateau into a fuzz→solve→fuzz
          alternation instead of a stop; [None] (the default) keeps
          the classic plateau stop *)
}

val default_config : config
(** 4 jobs, 20k total executions in epochs of 1k per worker, plateau
    window 3, seed 1, no persistence, no telemetry, crash policy
    {!Degrade}, no deadlines, no job id, no hybrid phase. *)

type epoch_stat = {
  ep_epoch : int;
  ep_executions : int;  (** cumulative at epoch end *)
  ep_probes_covered : int;
  ep_corpus_size : int;
}

type result = {
  suite : Bytes.t list;
      (** the merged corpus: one representative per probe-set
          fingerprint, in fingerprint order (deterministic) *)
  failures : Fuzzer.failure list;  (** first input per violated Assertion message *)
  probes_covered : int;
  probes_total : int;
  executions : int;
      (** cumulative, including resumed-from executions. Never exceeds
          [total_execs] on a fresh run: workers clip even their seed
          replay to the epoch slice *)
  epochs : epoch_stat list;  (** chronological, this run only *)
  resumed : bool;
  worker_crashes : int;
      (** worker domains that raised and were salvaged (under
          {!Degrade}; under {!Abort} the first crash raises) *)
  solver_rounds : int;  (** hybrid solver phases run *)
  solver_solved : int;  (** probes closed by those phases (campaign replay) *)
  solver_executions : int;  (** executions spent inside solver phases *)
  stop_reason : stop_reason option;
      (** why the campaign ended; [None] only when the state was
          abandoned mid-flight (a cancelled served job) *)
}

val validate : config -> (unit, string) Stdlib.result
(** [Error reason] for settings no campaign can run on: [jobs < 1],
    [execs_per_epoch < 1] (an epoch that can never spend its budget),
    and, on a hybrid campaign, a negative [solver_execs] or
    [solver_rounds] or an unroll bound below 1. Front doors (the CLI,
    the serve router) check a submission with it before queuing it. *)

val run : ?config:config -> Ir.program -> result
(** Raises [Invalid_argument] if {!validate} rejects [config], if the
    model has no inports, or if [resume] finds a manifest recorded for
    a program with a different probe count. Raises {!Worker_crashed} if a
    worker domain raises and [on_worker_crash = Abort]. If every
    live worker crashes for two consecutive epochs the campaign stops
    (the failure is clearly not transient) instead of spinning on a
    budget that can never be spent. *)

(** {2 Stepwise interface}

    [run] is [start] + a [step] loop + [finish]. The pieces are
    exposed so an external scheduler (the [cftcg serve] daemon) can
    interleave the epochs of many campaigns over one shared
    {!Worker_pool}, charge per-tenant budgets, and observe progress
    between epochs. A [step] with no clipping arguments is exactly one
    iteration of [run]'s loop, so a campaign stepped to completion
    produces the identical result to a solo [run] with the same
    configuration. *)

type state

val start : ?config:config -> Ir.program -> state
(** Opens the store (unless [config.store] is given), absorbs on-disk
    and configured seeds, and restores resume accounting. Same
    [Invalid_argument] cases as {!run}. *)

val finished : state -> bool
(** True once the budget is spent, the epoch cap or a deadline is hit,
    or a previous [step] decided to stop (full coverage, plateau, dead
    epochs). *)

val step :
  ?workers:int ->
  ?max_execs:int ->
  ?should_stop:(unit -> bool) ->
  ?pool:Worker_pool.t ->
  state ->
  int
(** Runs one epoch and returns the executions it actually performed
    (what a fair-share scheduler charges the tenant). [workers] caps
    the epoch's parallelism below [config.jobs]; [max_execs] clips the
    epoch's execution grant the same way the end of the global budget
    does — a granted campaign is a prefix-identical campaign.
    [should_stop] is polled by the workers (cooperative cancellation
    between fuzzing iterations) and, with [max_runtime], by a solver
    phase's shards between solver executions. With [pool], the epoch's
    domains are spawned only once the pool admits that many slots
    (at most its capacity); the results do not depend on the pool. Raises
    {!Worker_crashed} under the {!Abort} policy. *)

val finish : state -> result
(** Extracts the result. Does not close the sink and may be called
    while the campaign is still steppable (the result is a snapshot). *)

type progress = {
  pg_epoch : int;
  pg_executions : int;
  pg_probes_covered : int;
  pg_probes_total : int;
  pg_corpus_size : int;
  pg_worker_crashes : int;
  pg_solver_rounds : int;
  pg_stop_reason : stop_reason option;  (** set once a [step] decided to stop *)
}

val progress : state -> progress
(** Cheap snapshot for status endpoints. Call it between [step]s (the
    state is not internally locked). *)

open Cftcg_ir
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Rng = Cftcg_util.Rng
module Fault = Cftcg_util.Fault
module Bytecodec = Cftcg_util.Bytecodec
module Trace = Cftcg_obs.Trace
module Log = Cftcg_obs.Log
module Flight = Cftcg_obs.Flight

type crash_policy =
  | Abort
  | Degrade

exception Worker_crashed of { worker : int; epoch : int; message : string }

module Symexec = Cftcg_symexec.Symexec
module Guards = Cftcg_symexec.Guards

(* Hybrid concolic phase (ROADMAP item 2; the BMC+CGF alternation of
   arXiv 2211.04712): at a coverage plateau the campaign hands the
   still-uncovered probes to the bounded AVM solver instead of
   stopping, and resumes fuzzing from whatever the solver closed. *)
type hybrid = {
  solver_execs : int;  (** solver exec budget per phase (a virtual clock, never wall time) *)
  solver_rounds : int;  (** maximum solver phases per campaign *)
  solver : Symexec.config;  (** bounds/moves; [seed] is re-derived per phase *)
}

let default_hybrid =
  { solver_execs = 10_000; solver_rounds = 4; solver = Symexec.default_config }

type stop_reason =
  | Full_coverage
  | Plateau
  | Dead_workers
  | Budget
  | Epoch_cap
  | Deadline

let stop_reason_string = function
  | Full_coverage -> "full_coverage"
  | Plateau -> "plateau"
  | Dead_workers -> "dead_workers"
  | Budget -> "budget"
  | Epoch_cap -> "epoch_cap"
  | Deadline -> "deadline"

type config = {
  jobs : int;
  seed : int64;
  total_execs : int;
  execs_per_epoch : int;
  plateau_epochs : int;
  max_epochs : int;
  seed_cap : int;
  stop_on_full : bool;
  fuzzer : Fuzzer.config;
  corpus_dir : string option;
  store : Corpus_store.t option;
  resume : bool;
  sink : Telemetry.sink;
  on_worker_crash : crash_policy;
  max_runtime : float option;
  epoch_deadline : float option;
  job : string option;
  hybrid : hybrid option;
}

let default_config =
  {
    jobs = 4;
    seed = 1L;
    total_execs = 20_000;
    execs_per_epoch = 1_000;
    plateau_epochs = 3;
    max_epochs = 0;
    seed_cap = 64;
    stop_on_full = true;
    fuzzer = Fuzzer.default_config;
    corpus_dir = None;
    store = None;
    resume = false;
    sink = Telemetry.null;
    on_worker_crash = Degrade;
    max_runtime = None;
    epoch_deadline = None;
    job = None;
    hybrid = None;
  }

(* Correlation fields shared by every log line / dump of a campaign.
   The job id is minted at the serve boundary (or by the CLI for
   local runs); a plain library call just has no job field. *)
let job_fields config =
  match config.job with Some j -> [ ("job", j) ] | None -> []

type epoch_stat = {
  ep_epoch : int;
  ep_executions : int;
  ep_probes_covered : int;
  ep_corpus_size : int;
}

type result = {
  suite : Bytes.t list;
  failures : Fuzzer.failure list;
  probes_covered : int;
  probes_total : int;
  executions : int;
  epochs : epoch_stat list;
  resumed : bool;
  worker_crashes : int;
  solver_rounds : int;
  solver_solved : int;
  solver_executions : int;
  stop_reason : stop_reason option;
}

(* Per-(epoch, worker) seed: one splitmix64 step over a slot derived
   from the master seed — deterministic, independent of scheduling,
   and stable across resume (slots are absolute epoch numbers). *)
let derive_seed base ~epoch ~worker =
  let master = Rng.create base in
  let slot = Int64.logxor (Rng.next64 master) (Int64.of_int (((epoch + 1) * 65599) + worker)) in
  Rng.next64 (Rng.create slot)

(* Per-(epoch, round, shard) solver seed: the same splitmix derivation
   as worker seeds, over a master tagged per shard so every solver
   stream is disjoint from every worker stream and from the other
   shards'. Shard 0's tag is the one the unsharded phase used, so a
   jobs-1 campaign keeps its seeds. Pure function of the campaign
   seed — a solver phase is as deterministic as the epochs around
   it. *)
let solver_seed ?(shard = 0) base ~epoch ~round =
  let tag = Int64.logxor 0x5EEDC0DEL (Int64.shift_left (Int64.of_int shard) 32) in
  derive_seed (Int64.logxor base tag) ~epoch ~worker:round

(* Coordinator-side Algorithm-1 replay of one input: its probe-set
   bitmap (the dedup fingerprint) and its Iteration Difference
   Coverage metric (the tie-break between representatives). It is the
   fuzzer's own executor, over the campaign's prepared code, run
   against a bitmap zeroed per input — so every probe the input fires
   counts as fresh and lands in the bitmap. *)
let make_replayer ~code (prog : Ir.program) ~max_tuples =
  let layout = Layout.of_program prog in
  let n_probes = max prog.Ir.n_probes 1 in
  let bitmap = Bytes.make n_probes '\000' in
  let run_input =
    Fuzzer.make_executor ~code ~backend:Fuzzer.Vm ~layout ~prog ~g_total:bitmap ~max_tuples
      ~use_metric:true ()
  in
  let fresh_cells = ref [] in
  fun data ->
    Bytes.fill bitmap 0 n_probes '\000';
    fresh_cells := [];
    let metric, _, _ = run_input ~fresh_cells data in
    (Bytes.copy bitmap, metric)

let count_covered bitmap =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) bitmap;
  !n

let fingerprint bitmap = Bytecodec.hex_of_int64 (Bytecodec.fnv64 bitmap)

(* ------------------------------------------------------------------ *)
(* Stepwise campaign state: [start] builds it, [step] runs one epoch,
   [finished] is the loop condition, [finish] extracts the result.
   [run] composes them; a scheduler ([cftcg serve]) interleaves many
   states over one shared Worker_pool instead. *)

type state = {
  st_config : config;
  st_prog : Ir.program;
  st_code : Ir_vm.code;
      (* prepared once at [start] and shared read-only by
         the replayer and every worker domain of every epoch *)
  st_solver_prep : (Ir_vm.code * Guards.chain array) Lazy.t;
      (* the solver's branch-recording code and guard chains: forced by
         the first solver phase, on the coordinator, then shared
         read-only by every shard of every round *)
  st_n_probes : int;
  st_replay : Bytes.t -> Bytes.t * int;
  st_emit : Telemetry.event -> unit;
  st_store : Corpus_store.t option;
  st_coverage : Bytes.t;
  st_corpus : (string, int * Bytes.t) Hashtbl.t;
  st_seen_failures : (string, unit) Hashtbl.t;
  mutable st_executions : int;
  mutable st_epoch0 : int;
  mutable st_epoch : int;
  mutable st_resumed : bool;
  mutable st_failures : Fuzzer.failure list;
  mutable st_epoch_stats : epoch_stat list;
  mutable st_stalled : int;
  mutable st_last_covered : int;
  mutable st_stop : bool;
  mutable st_stop_reason : stop_reason option;
  mutable st_worker_crashes : int;
  mutable st_live_jobs : int;
  mutable st_dead_epochs : int;
  mutable st_solver_rounds : int;
  mutable st_solver_solved : int;
  mutable st_solver_execs : int;
  st_deadline : float;  (* wall clock; infinity when max_runtime unset *)
}

(* Records why the campaign is stopping; the first reason wins. *)
let stop_with st reason =
  st.st_stop <- true;
  if st.st_stop_reason = None then st.st_stop_reason <- Some reason

let fully_covered st =
  st.st_prog.Ir.n_probes > 0 && count_covered st.st_coverage >= st.st_prog.Ir.n_probes

let absorb st data =
  let bitmap, metric = st.st_replay data in
  if Bytes.exists (fun c -> c <> '\000') bitmap then begin
    for i = 0 to st.st_n_probes - 1 do
      if Bytes.unsafe_get bitmap i <> '\000' then Bytes.unsafe_set st.st_coverage i '\001'
    done;
    let fp = fingerprint bitmap in
    match Hashtbl.find_opt st.st_corpus fp with
    | Some (best, _) when best >= metric -> ()
    | _ -> Hashtbl.replace st.st_corpus fp (metric, data)
  end

let validate config =
  let bad_bounds (hy : hybrid) = List.exists (fun b -> b < 1) hy.solver.Symexec.unroll_bounds in
  match config.hybrid with
  | _ when config.jobs < 1 -> Error "jobs must be >= 1"
  | _ when config.execs_per_epoch < 1 -> Error "execs_per_epoch must be >= 1"
  | Some hy when hy.solver_execs < 0 -> Error "solver_execs must be >= 0"
  | Some hy when hy.solver_rounds < 0 -> Error "solver_rounds must be >= 0"
  | Some hy when bad_bounds hy -> Error "solver unroll bounds must be >= 1"
  | _ -> Ok ()

let start ?(config = default_config) (prog : Ir.program) =
  Trace.with_span "campaign.start" @@ fun () ->
  (match validate config with
  | Error msg -> invalid_arg ("Campaign.start: " ^ msg)
  | Ok () -> ());
  let layout = Layout.of_program prog in
  if layout.Layout.tuple_len = 0 then invalid_arg "Campaign.start: model has no inports";
  (* a bad range fails here, not as a crash in every worker *)
  ignore (Layout.with_ranges layout config.fuzzer.Fuzzer.ranges);
  let n_probes = max prog.Ir.n_probes 1 in
  let code = Ir_vm.prepare prog in
  let replay = make_replayer ~code prog ~max_tuples:config.fuzzer.Fuzzer.max_tuples in
  (* every fact below is reported once, through this one path: the
     log line and the campaign counters are derived from the event *)
  let emit = Telemetry.report config.sink in
  let store =
    match config.store with
    | Some _ as s -> s
    | None ->
      Option.map
        (Corpus_store.open_ ~on_salvage:(fun message -> emit (Telemetry.Salvage { message })))
        config.corpus_dir
  in
  let st =
    {
      st_config = config;
      st_prog = prog;
      st_code = code;
      st_solver_prep = lazy (Symexec.prepare_code prog, Guards.probe_chains prog);
      st_n_probes = n_probes;
      st_replay = replay;
      st_emit = emit;
      st_store = store;
      st_coverage = Bytes.make n_probes '\000';
      st_corpus = Hashtbl.create 64;
      st_seen_failures = Hashtbl.create 4;
      st_executions = 0;
      st_epoch0 = 0;
      st_epoch = 0;
      st_resumed = false;
      st_failures = [];
      st_epoch_stats = [];
      st_stalled = 0;
      st_last_covered = 0;
      st_stop = false;
      st_stop_reason = None;
      st_worker_crashes = 0;
      st_live_jobs = config.jobs;
      st_dead_epochs = 0;
      st_solver_rounds = 0;
      st_solver_solved = 0;
      st_solver_execs = 0;
      st_deadline =
        (match config.max_runtime with
        | None -> Float.infinity
        | Some s -> Unix.gettimeofday () +. s);
    }
  in
  (* resume accounting from the manifest; corpus entries on disk are
     always absorbed as seeds, manifest or not (LibFuzzer semantics:
     whatever is in the corpus directory seeds the run) *)
  (match store with
  | Some s ->
    (match Corpus_store.load_manifest s with
    | Some m when config.resume ->
      if m.Corpus_store.m_probes_total <> prog.Ir.n_probes then
        invalid_arg "Campaign.start: corpus was recorded for a different program";
      st.st_resumed <- true;
      st.st_epoch0 <- m.Corpus_store.m_epoch;
      st.st_executions <- m.Corpus_store.m_executions;
      if Bytes.length m.Corpus_store.m_coverage = n_probes then
        for i = 0 to n_probes - 1 do
          if Bytes.unsafe_get m.Corpus_store.m_coverage i <> '\000' then
            Bytes.unsafe_set st.st_coverage i '\001'
        done
    | Some _ | None -> ());
    List.iter (absorb st) (Corpus_store.entries s)
  | None -> ());
  List.iter (absorb st) config.fuzzer.Fuzzer.seeds;
  st.st_epoch <- st.st_epoch0;
  st.st_last_covered <- count_covered st.st_coverage;
  if config.stop_on_full && fully_covered st then stop_with st Full_coverage;
  Log.info ~fields:(job_fields config)
    "campaign start: %d jobs, %d exec budget, seed %Ld%s" config.jobs
    config.total_execs config.seed
    (if st.st_resumed then Printf.sprintf " (resumed at epoch %d)" st.st_epoch0 else "");
  st

let past_deadline st = Float.is_finite st.st_deadline && Unix.gettimeofday () >= st.st_deadline

let finished st =
  let c = st.st_config in
  st.st_stop
  || st.st_executions >= c.total_execs
  || (c.max_epochs > 0 && st.st_epoch - st.st_epoch0 >= c.max_epochs)
  || past_deadline st

(* One hybrid solver phase: collect the still-uncovered probes from
   the merged coverage map, run the bounded AVM solver against them
   under a deterministic exec budget, and absorb whatever it closed
   into the corpus — fingerprint-deduped exactly like an epoch merge,
   so the solved inputs reach every worker as seeds at the next
   epoch's redistribution. Returns how many probes the phase newly
   covered (by the campaign's own replay).

   The phase runs across the campaign's live jobs, like an epoch: the
   uncovered targets are dealt round-robin, shallow-first, into one
   shard per live job ({!Symexec.shard_targets}), and each shard gets
   an exact share of the budget (remainder to the low shards) and a
   seed of its own. Shard 0 runs on the coordinator, the rest in
   spawned domains, and all are joined before any exception is acted
   on. The shard count is [st_live_jobs] — config and crash history,
   never pool capacity — so a scheduler's pool bounds how many slots
   the phase borrows, not what it finds.

   Determinism: every shard's seed is a pure function of (campaign
   seed, epoch, round, shard), its budget is the execution counter
   (the solver never reads the wall clock under [Exec_budget]), the
   budget split against the remaining global allowance is exact
   integer accounting, and the shards' suites are absorbed in shard
   order. So a hybrid campaign keeps the byte-identical same-seed
   transcript of its fuzzing epochs for the same job count, with
   observability on or off; at jobs 1 the single shard is the
   unsharded solver. [should_stop] (cancellation, [max_runtime])
   reaches every shard; when neither is set the solver never polls.
   Solver executions land in [st_executions], so [step]'s return
   charges them against the submitting tenant's DRR budget like any
   fuzzing exec. *)
let solver_phase ?pool ?should_stop st (hy : hybrid) ~epoch =
  let config = st.st_config in
  let emit = st.st_emit in
  let round = st.st_solver_rounds in
  st.st_solver_rounds <- round + 1;
  let covered_before = count_covered st.st_coverage in
  let targets = st.st_prog.Ir.n_probes - covered_before in
  let budget = min hy.solver_execs (max 0 (config.total_execs - st.st_executions)) in
  let shards = st.st_live_jobs in
  emit
    (Telemetry.Solver_phase
       { epoch; round; targets; stalled_epochs = st.st_stalled; budget; shards });
  let code, chains = Lazy.force st.st_solver_prep in
  let shard k () =
    let sym = { hy.solver with Symexec.seed = solver_seed ~shard:k config.seed ~epoch ~round } in
    let budget = (budget / shards) + if k < budget mod shards then 1 else 0 in
    (* spawned domains do not inherit the coordinator's context *)
    Log.with_ctx
      (job_fields config @ [ ("epoch", string_of_int epoch); ("shard", string_of_int k) ])
    @@ fun () ->
    Trace.with_span_result "campaign.solver.shard"
      ~args:[ ("shard", string_of_int k); ("round", string_of_int round) ]
      ~end_args:(fun (r : Symexec.result) ->
        [ ("executions", string_of_int r.Symexec.executions);
          ("closed", string_of_int (r.Symexec.probes_covered - covered_before)) ])
    @@ fun () ->
    Symexec.run ~config:sym ~initial_coverage:st.st_coverage ~shard:(k, shards) ~code ~chains
      ?should_stop st.st_prog (Symexec.Exec_budget budget)
  in
  let guarded k () =
    match shard k () with
    | r -> Ok r
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let run_shards () =
    Trace.with_span "campaign.solver"
      ~args:[ ("epoch", string_of_int epoch); ("round", string_of_int round) ]
    @@ fun () ->
    let spawned = List.init (shards - 1) (fun i -> Domain.spawn (guarded (i + 1))) in
    let first = guarded 0 () in
    first :: List.map Domain.join spawned
  in
  (* borrow pool slots so a scheduler's concurrency cap covers the
     solver's CPU like it covers the workers' *)
  let outcomes =
    match pool with
    | None -> run_shards ()
    | Some p -> Worker_pool.with_slots p (min shards (Worker_pool.capacity p)) run_shards
  in
  let results =
    List.map
      (function Ok r -> r | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      outcomes
  in
  let executions, slowest =
    List.fold_left
      (fun (sum, slowest) (r : Symexec.result) ->
        (sum + r.Symexec.executions, max slowest r.Symexec.executions))
      (0, 0) results
  in
  st.st_executions <- st.st_executions + executions;
  st.st_solver_execs <- st.st_solver_execs + executions;
  List.iter
    (fun (r : Symexec.result) ->
      List.iter (fun (tc : Symexec.test_case) -> absorb st tc.Symexec.data) r.Symexec.suite)
    results;
  let covered = count_covered st.st_coverage in
  let closed = covered - covered_before in
  st.st_solver_solved <- st.st_solver_solved + closed;
  emit
    (Telemetry.Solver_done
       { epoch; round; targets; solved = closed; executions; probes_covered = covered;
         slowest_shard_executions = slowest });
  (* restart stall detection from the post-solve coverage level: the
     next plateau is measured against what the solver left behind *)
  st.st_stalled <- 0;
  st.st_last_covered <- covered;
  closed

(* One epoch: distribute budgets, run the workers (through the shared
   pool when given one), merge and persist. Returns the executions the
   epoch actually performed, so a scheduler can charge them against
   the submitting tenant's budget. *)
let step ?workers ?max_execs ?should_stop ?pool st =
  let config = st.st_config in
  let emit = st.st_emit in
  let this_epoch = st.st_epoch in
  (* outside the campaign.epoch trace span so the span records with
     the job/epoch correlation context installed *)
  Log.with_ctx (job_fields config @ [ ("epoch", string_of_int this_epoch) ])
  @@ fun () ->
  let jobs_now =
    match workers with
    | None -> st.st_live_jobs
    | Some w -> max 1 (min w st.st_live_jobs)
  in
  let execs_before = st.st_executions in
  (* redistribute the best corpus entries as the shared seed corpus:
     metric-descending, fingerprint tie-break, capped *)
  let seeds =
    Hashtbl.fold (fun fp (metric, data) acc -> (metric, fp, data) :: acc) st.st_corpus []
    |> List.sort (fun (m1, f1, _) (m2, f2, _) -> compare (-m1, f1) (-m2, f2))
    |> List.filteri (fun i _ -> i < config.seed_cap)
    |> List.map (fun (_, _, data) -> data)
  in
  (* exact global budget accounting: this epoch's executions are
     divided across workers ahead of time. [max_execs] (a scheduler
     grant) clips the epoch the same way the end of the global budget
     does, so a granted epoch is a prefix-identical campaign. *)
  let remaining = config.total_execs - st.st_executions in
  let remaining =
    match max_execs with
    | None -> remaining
    | Some g -> min remaining (max 0 g)
  in
  let epoch_total = min remaining (config.execs_per_epoch * jobs_now) in
  let budget_of ix =
    (epoch_total / jobs_now) + (if ix < epoch_total mod jobs_now then 1 else 0)
  in
  (* per-epoch wall deadline: the per-epoch cap (if any) clipped to
     what is left of the campaign's --max-runtime. When neither is
     set workers run plain Exec_budgets and never read the wall
     clock, keeping same-seed campaigns byte-identical. *)
  let epoch_deadline_s =
    let campaign_left =
      if Float.is_finite st.st_deadline then
        Some (Float.max (st.st_deadline -. Unix.gettimeofday ()) 0.01)
      else None
    in
    match (config.epoch_deadline, campaign_left) with
    | None, None -> None
    | Some d, None -> Some d
    | None, Some l -> Some l
    | Some d, Some l -> Some (Float.min d l)
  in
  let budget_for ix =
    match epoch_deadline_s with
    | None -> Fuzzer.Exec_budget (budget_of ix)
    | Some s -> Fuzzer.Wall_budget { max_execs = budget_of ix; max_seconds = s }
  in
  let abort = Atomic.make false in
  let worker ix () =
    (* fault injection: a raising worker exercises the salvage path *)
    Fault.check Fault.Worker_raise;
    let wseed = derive_seed config.seed ~epoch:this_epoch ~worker:ix in
    let fcfg = { config.fuzzer with Fuzzer.seed = wseed; seeds } in
    let on_progress (st : Fuzzer.stats) =
      emit
        (Telemetry.Exec_batch
           { worker = ix; epoch = this_epoch; executions = st.Fuzzer.executions;
             iterations = st.Fuzzer.iterations; probes_covered = st.Fuzzer.probes_covered });
      (* a worker that has lit every probe locally has lit every
         probe globally: let the other workers stop early *)
      if config.stop_on_full && st.Fuzzer.probes_total > 0
         && st.Fuzzer.probes_covered >= st.Fuzzer.probes_total
      then Atomic.set abort true
    in
    let on_test_case (tc : Fuzzer.test_case) =
      emit
        (Telemetry.New_probe
           { worker = ix; epoch = this_epoch; probes = tc.Fuzzer.tc_new_probes;
             executions = int_of_float tc.Fuzzer.tc_time })
    in
    (* workers run in fresh domains, so the coordinator's ambient
       context does not reach them: install the full correlation set
       (job/worker/epoch) here, outside the trace span *)
    Log.with_ctx
      (job_fields config
      @ [ ("worker", string_of_int ix); ("epoch", string_of_int this_epoch) ])
    @@ fun () ->
    Log.debug "worker start: budget %d execs" (budget_of ix);
    Trace.with_span "campaign.worker"
      ~args:[ ("worker", string_of_int ix); ("epoch", string_of_int this_epoch) ]
    @@ fun () ->
    Fuzzer.run ~config:fcfg ~code:st.st_code ~on_test_case ~on_progress
      ~should_stop:(fun () ->
        Atomic.get abort || match should_stop with Some stop -> stop () | None -> false)
      st.st_prog (budget_for ix)
  in
  Trace.with_span "campaign.epoch" ~args:[ ("epoch", string_of_int this_epoch) ] @@ fun () ->
  (* Crash isolation: every domain body is wrapped so Domain.join
     yields a result instead of re-raising — one raising worker can
     no longer destroy the whole epoch. All domains are joined
     before any crash is acted on, so even Abort never leaks a
     running domain. *)
  let guarded ix () =
    match worker ix () with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let spawn_and_join () =
    match List.init jobs_now (fun ix -> ix) with
    | [ _lone ] -> [ (0, guarded 0 ()) ]  (* jobs=1: skip domain setup *)
    | ixs ->
      List.map
        (fun (ix, d) -> (ix, Domain.join d))
        (List.map (fun ix -> (ix, Domain.spawn (guarded ix))) ixs)
  in
  let joined =
    match pool with
    | None -> spawn_and_join ()
    | Some p -> Worker_pool.with_slots p (min jobs_now (Worker_pool.capacity p)) spawn_and_join
  in
  let results =
    List.filter_map
      (fun (ix, r) ->
        match r with
        | Ok r -> Some r
        | Error message ->
          st.st_worker_crashes <- st.st_worker_crashes + 1;
          (* black-box capture before the policy acts: the dump
             carries the crashing job's correlation ids and the ring
             tail leading up to the crash, ending with the crash's
             own log line *)
          emit (Telemetry.Worker_crash { worker = ix; epoch = this_epoch; message });
          let crash_fields =
            job_fields config
            @ [ ("worker", string_of_int ix); ("epoch", string_of_int this_epoch) ]
          in
          ignore (Flight.dump ~fields:crash_fields ~reason:("worker crash: " ^ message) ());
          emit
            (Telemetry.Failure
               { worker = ix; epoch = this_epoch; message = "worker crashed: " ^ message });
          (match config.on_worker_crash with
          | Abort ->
            config.sink.Telemetry.close ();
            raise (Worker_crashed { worker = ix; epoch = this_epoch; message })
          | Degrade ->
            st.st_live_jobs <- max 1 (st.st_live_jobs - 1);
            None))
      joined
  in
  (* --- coordinator merge (the fork-mode "corpus merge" step) --- *)
  let candidates =
    Trace.with_span "campaign.merge" @@ fun () ->
    let candidates =
      List.concat_map
        (fun (r : Fuzzer.result) ->
          List.map (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data) r.Fuzzer.test_suite)
        results
    in
    List.iter (absorb st) candidates;
    candidates
  in
  List.iter
    (fun (r : Fuzzer.result) ->
      st.st_executions <- st.st_executions + r.Fuzzer.stats.Fuzzer.executions)
    results;
  List.iteri
    (fun ix (r : Fuzzer.result) ->
      List.iter
        (fun (f : Fuzzer.failure) ->
          if not (Hashtbl.mem st.st_seen_failures f.Fuzzer.f_message) then begin
            Hashtbl.replace st.st_seen_failures f.Fuzzer.f_message ();
            st.st_failures <- f :: st.st_failures;
            emit
              (Telemetry.Failure
                 { worker = ix; epoch = this_epoch; message = f.Fuzzer.f_message })
          end)
        r.Fuzzer.failures)
    results;
  let covered = count_covered st.st_coverage in
  emit
    (Telemetry.Corpus_sync
       { epoch = this_epoch; candidates = List.length candidates;
         kept = Hashtbl.length st.st_corpus; probes_covered = covered });
  (* persist: entries first, manifest last, each write atomic — a
     kill at any point resumes from a consistent state. Writes are
     retried with backoff inside Corpus_store; an operation that
     still fails is skipped (not fatal): the in-memory corpus is
     intact and the entry or manifest is re-persisted next epoch. *)
  (match st.st_store with
  | Some s ->
    Trace.with_span "campaign.persist" @@ fun () ->
    let persist_failures = ref 0 in
    let transient = function
      | Fault.Injected _ | Sys_error _ | Unix.Unix_error _ -> true
      | _ -> false
    in
    Hashtbl.iter
      (fun fp (metric, data) ->
        try ignore (Corpus_store.add s ~fingerprint:fp ~metric data) with
        | e when transient e -> incr persist_failures)
      st.st_corpus;
    (try
       Corpus_store.save_manifest s
         {
           Corpus_store.m_seed = config.seed;
           m_jobs = config.jobs;
           m_epoch = this_epoch + 1;
           m_executions = st.st_executions;
           m_probes_total = st.st_prog.Ir.n_probes;
           m_coverage = st.st_coverage;
         }
     with
    | e when transient e -> incr persist_failures);
    if !persist_failures > 0 then
      emit
        (Telemetry.Salvage
           { message =
               Printf.sprintf
                 "epoch %d: %d persist operation(s) failed after retries; will retry next epoch"
                 this_epoch !persist_failures
           })
  | None -> ());
  emit
    (Telemetry.Epoch_end
       { epoch = this_epoch; executions = st.st_executions; probes_covered = covered;
         probes_total = st.st_prog.Ir.n_probes; corpus_size = Hashtbl.length st.st_corpus });
  st.st_epoch_stats <-
    { ep_epoch = this_epoch; ep_executions = st.st_executions; ep_probes_covered = covered;
      ep_corpus_size = Hashtbl.length st.st_corpus }
    :: st.st_epoch_stats;
  if covered > st.st_last_covered then st.st_stalled <- 0
  else st.st_stalled <- st.st_stalled + 1;
  st.st_last_covered <- covered;
  (* an epoch in which every worker crashed makes no progress at
     all; two in a row means the failure is not transient — stop
     instead of spinning on a budget that can never be spent *)
  if results = [] then st.st_dead_epochs <- st.st_dead_epochs + 1 else st.st_dead_epochs <- 0;
  (* read before a solver phase restarts the stall count *)
  let stalled_epochs = st.st_stalled in
  let plateau_stop () =
    emit (Telemetry.Plateau { epoch = this_epoch; stalled_epochs });
    stop_with st Plateau
  in
  if config.stop_on_full && fully_covered st then stop_with st Full_coverage
  else if st.st_stalled >= config.plateau_epochs then begin
    (* hybrid phase state machine: fuzz → (plateau) → solve → fuzz …
       until the solver comes up dry or its rounds are spent, at
       which point the plateau is final *)
    match config.hybrid with
    | Some hy when st.st_solver_rounds < hy.solver_rounds && not (fully_covered st) ->
      (* the solver polls only what a caller set: a cancellation hook
         or a campaign deadline *)
      let should_stop =
        match should_stop with
        | None when not (Float.is_finite st.st_deadline) -> None
        | _ ->
          Some
            (fun () ->
              past_deadline st || match should_stop with Some stop -> stop () | None -> false)
      in
      let closed = solver_phase ?pool ?should_stop st hy ~epoch:this_epoch in
      if closed = 0 then plateau_stop ()
      else if config.stop_on_full && fully_covered st then stop_with st Full_coverage
    | Some _ | None -> plateau_stop ()
  end
  else if st.st_dead_epochs >= 2 then begin
    emit (Telemetry.Dead_workers { epoch = this_epoch; dead_epochs = st.st_dead_epochs });
    stop_with st Dead_workers
  end;
  st.st_epoch <- st.st_epoch + 1;
  st.st_executions - execs_before

(* Why the campaign is over: an explicit stop records its reason when
   it happens; the remaining loop conditions are re-derived here.
   [None] means the campaign was abandoned mid-flight (a cancelled
   served job). The deadline check only touches the wall clock when
   [max_runtime] was set, so deterministic runs stay clock-free. *)
let effective_stop_reason st =
  match st.st_stop_reason with
  | Some _ as r -> r
  | None ->
    let c = st.st_config in
    if st.st_executions >= c.total_execs then Some Budget
    else if c.max_epochs > 0 && st.st_epoch - st.st_epoch0 >= c.max_epochs then Some Epoch_cap
    else if past_deadline st then Some Deadline
    else None

let finish st =
  let suite =
    Hashtbl.fold (fun fp (_, data) acc -> (fp, data) :: acc) st.st_corpus []
    |> List.sort (fun (f1, _) (f2, _) -> compare f1 f2)
    |> List.map snd
  in
  {
    suite;
    failures = List.rev st.st_failures;
    probes_covered = count_covered st.st_coverage;
    probes_total = st.st_prog.Ir.n_probes;
    executions = st.st_executions;
    epochs = List.rev st.st_epoch_stats;
    resumed = st.st_resumed;
    worker_crashes = st.st_worker_crashes;
    solver_rounds = st.st_solver_rounds;
    solver_solved = st.st_solver_solved;
    solver_executions = st.st_solver_execs;
    stop_reason = effective_stop_reason st;
  }

type progress = {
  pg_epoch : int;
  pg_executions : int;
  pg_probes_covered : int;
  pg_probes_total : int;
  pg_corpus_size : int;
  pg_worker_crashes : int;
  pg_solver_rounds : int;
  pg_stop_reason : stop_reason option;
}

let progress st =
  {
    pg_epoch = st.st_epoch;
    pg_executions = st.st_executions;
    pg_probes_covered = count_covered st.st_coverage;
    pg_probes_total = st.st_prog.Ir.n_probes;
    pg_corpus_size = Hashtbl.length st.st_corpus;
    pg_worker_crashes = st.st_worker_crashes;
    pg_solver_rounds = st.st_solver_rounds;
    pg_stop_reason = st.st_stop_reason;
  }

let run ?(config = default_config) (prog : Ir.program) =
  Trace.with_span "campaign.run" @@ fun () ->
  let st = start ~config prog in
  while not (finished st) do
    ignore (step st)
  done;
  finish st

open Cftcg_ir
module Rng = Cftcg_util.Rng
module Fault = Cftcg_util.Fault
module Metrics = Cftcg_obs.Metrics
module Trace = Cftcg_obs.Trace
module Log = Cftcg_obs.Log
module Series = Cftcg_obs.Series

type backend = Vm

type config = {
  seed : int64;
  max_tuples : int;
  corpus_cap : int;
  field_aware : bool;
  iteration_metric : bool;
  ranges : (string * float * float) list;
  seeds : Bytes.t list;
  use_dictionary : bool;
  batch : int;
}

(* Children are drafted in fixed-size generations (see the scheduler
   below); the generation size pins the RNG stream, so changing it
   changes every same-seed campaign. *)
let draft_size = 16

let default_config =
  { seed = 1L; max_tuples = 256; corpus_cap = 256; field_aware = true; iteration_metric = true;
    ranges = []; seeds = []; use_dictionary = true; batch = 8 }

type budget =
  | Time_budget of float
  | Exec_budget of int
  | Wall_budget of { max_execs : int; max_seconds : float }

type test_case = {
  tc_data : Bytes.t;
  tc_time : float;
  tc_new_probes : int;
}

type failure = {
  f_data : Bytes.t;
  f_time : float;
  f_message : string;
}

type stats = {
  executions : int;
  iterations : int;
  elapsed : float;
  corpus_size : int;
  probes_covered : int;
  probes_total : int;
}

type result = {
  test_suite : test_case list;
  failures : failure list;
  stats : stats;
}

(* A corpus entry's trajectory: checkpoints of its from-reset
   execution of [t_n] steps, one after every [t_every]-th step.
   Checkpoint [j] holds the state after step [(j + 1) * t_every - 1]:
   the VM's carried registers (stride: the carried-set size), that
   step's probe bit-words (stride: the bit-word count) and Algorithm
   1's metric summed through it. [t_total] is the metric summed
   through all [t_n] steps. *)
type trajectory = {
  t_n : int;
  t_every : int;
  t_regs : float array;
  t_bits : int array;
  t_metric : int array;
  mutable t_total : int;
}

let no_trajectory =
  { t_n = 0; t_every = 1; t_regs = [||]; t_bits = [||]; t_metric = [||]; t_total = 0 }

type entry = {
  data : Bytes.t;
  score : int;
  mutable traj : trajectory;
      (* recorded when first drafted as a parent; [no_trajectory]
         until then *)
}

(* Corpus score: inputs that found new coverage dominate; among the
   rest, the iteration-difference metric *per iteration* ranks them
   (the raw metric grows with input length, which would bias the
   corpus toward long oscillating inputs and stall exploration). *)
let entry_score ~fresh ~metric ~iters =
  let norm_metric = if iters = 0 then 0 else metric * 8 / iters in
  (100 * min fresh 20) + min norm_metric 200

(* 32-bit SWAR population count. [Ir_vm] has its own; this copy sits
   here so it inlines into [run_one]'s word loop. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

(* An executor: one VM instance and its two probe buffers, over the
   campaign-global coverage bytes [g_total]. *)
type executor = {
  layout : Layout.t;
  vm : Ir_vm.t;
  pa : Ir_vm.probes;
  pb : Ir_vm.probes;
  g_total : Bytes.t;
  max_tuples : int;
  use_metric : bool;
  mutable rejoined : int;  (* steps the last run skipped by rejoining *)
}

(* The whole tuples that end the first [na] tuples of [a] and the
   first [nb] of [b] alike, at most [limit] (at most both counts):
   [common_tuples] below, compared from the ends. *)
let common_tail_tuples ~tuple_len a na b nb limit =
  let ea = na * tuple_len and eb = nb * tuple_len in
  let len = limit * tuple_len in
  let i = ref 0 in
  while
    !i + 8 <= len
    && Int64.equal (Bytes.get_int64_ne a (ea - !i - 8)) (Bytes.get_int64_ne b (eb - !i - 8))
  do
    i := !i + 8
  done;
  while !i < len && Bytes.unsafe_get a (ea - !i - 1) = Bytes.unsafe_get b (eb - !i - 1) do
    incr i
  done;
  !i / tuple_len

(* The first child step whose state a child of [parent] (trajectory
   [from]) compares against its parent's: child step [t] can rejoin
   when it ran ([t >= start]), has steps after it ([t <= n - 2]), maps
   onto a parent checkpoint [p = t - delta >= 0], and every tuple
   after it lies in the tail the two inputs share, where child tuple
   [i] is parent tuple [i - delta]. [max_int] when no step can. *)
let first_rejoin x ~parent ~(from : trajectory) ~start ~n child =
  let delta = n - from.t_n in
  let lo = max start delta in
  (* a tail longer than [n - 1 - lo] tuples moves no step earlier *)
  let limit = min (min n from.t_n) (n - 1 - lo) in
  if limit <= 0 then max_int
  else begin
    let k = common_tail_tuples ~tuple_len:x.layout.Layout.tuple_len child n parent from.t_n limit in
    let e = from.t_every in
    (* the first checkpointed parent step at or after the first step
       both bounds allow *)
    let p = (((max lo (n - 1 - k) - delta) + e) / e * e) - 1 in
    if p + delta > n - 2 then max_int else p + delta
  end

(* [a.(0 ..)] and [b.(at ..)] agree on [n] words; bounds-checked *)
let words_equal (a : int array) (b : int array) ~at n =
  let w = ref 0 in
  while !w < n && a.(!w) = b.(at + !w) do
    incr w
  done;
  !w = n

(* Executes one input through the fuzz driver: Algorithm 1, from step
   [start]. Returns (iteration-difference metric, newly covered probe
   count, iterations executed). Double-buffers two probe records
   ([pa], [pb]) and works on their bit-words: per word, [d = c lxor l]
   is the symmetric difference of consecutive steps' probe sets, and
   its popcount adds to the metric. Only [d land c] — probes that
   fired now but not on the previous step — can be new to the
   campaign: every probe that fired on the previous step was checked
   against [g_total] then (the first step's [l] is empty, so all of
   its probes are checked). Fresh cells of one step come out in
   ascending id order. Both buffers must be empty on entry; they are
   left empty on return.

   [start = 0] runs from reset. [start > 0] resumes from [from], the
   trajectory of an input that ran against this [g_total] and shares
   the first [start] tuples with [data], [start] a multiple of its
   [t_every]: the checkpoint after step [start - 1] puts its carried
   registers back into the VM, its bit-words into the "last" buffer
   and its metric prefix into [metric]. The skipped steps could yield
   no fresh cell — that input already set every probe they fire —
   and each metric term reads only two consecutive steps, so the
   result equals a run from reset. [record] receives this run's own
   checkpoints.

   Suffix rejoin: when [from] is [parent]'s trajectory and child step
   [t] ends where parent step [t - delta] did — the same probe
   bit-words and bit-identical carried registers at a checkpoint —
   and every later child tuple is the parent's, the remaining steps
   would replay the parent's, whose probes are all in [g_total] and
   whose metric terms sum to [t_total] less the checkpoint's sum. The
   run adds that, stops and returns [n] iterations, and leaves the
   skipped step count in [x.rejoined]. A run with no trajectory compares
   one integer per step and never rejoins. *)
let run_one x ~fresh_cells ~parent ~from ~start ~record data =
  let vm = x.vm and pa = x.pa and pb = x.pb and g_total = x.g_total in
  let n = min (Layout.n_tuples x.layout data) x.max_tuples in
  let n_words = Array.length pa.Ir_vm.p_bits in
  let metric = ref 0 in
  let delta = n - from.t_n in
  let next_check =
    ref (if from.t_n = 0 then max_int else first_rejoin x ~parent ~from ~start ~n data)
  in
  x.rejoined <- 0;
  Ir_vm.set_probes vm pa;
  if start = 0 then begin
    Ir_vm.reset vm;
    (* init-block probes are warm-up, not coverage *)
    Ir_vm.clear_probes pa
  end
  else begin
    let j = (start / from.t_every) - 1 in
    Ir_vm.restore_carried vm from.t_regs ~at:(j * Array.length (Ir_vm.carried vm));
    Array.blit from.t_bits (j * n_words) pb.Ir_vm.p_bits 0 n_words;
    metric := from.t_metric.(j)
  end;
  let curr = ref pa in
  let last = ref pb in
  let fresh = ref 0 in
  let next = ref start and stop = ref n in
  while !next < !stop do
    let tuple = !next in
    next := tuple + 1;
    let c = !curr in
    let l = !last in
    Ir_vm.set_probes vm c;
    Layout.load_tuple_vm x.layout data ~tuple vm;
    Ir_vm.step vm;
    let cw = c.Ir_vm.p_bits and lw = l.Ir_vm.p_bits in
    for w = 0 to n_words - 1 do
      let cb = Array.unsafe_get cw w in
      let d = cb lxor Array.unsafe_get lw w in
      metric := !metric + popcount d;
      let rising = ref (d land cb) in
      while !rising <> 0 do
        let low = !rising land (- !rising) in
        let id = (w lsl 5) lor popcount (low - 1) in
        if Bytes.unsafe_get g_total id = '\000' then begin
          Bytes.unsafe_set g_total id '\001';
          incr fresh;
          fresh_cells := id :: !fresh_cells
        end;
        rising := !rising lxor low
      done
    done;
    (match record with
    | Some r when (tuple + 1) mod r.t_every = 0 ->
      let j = ((tuple + 1) / r.t_every) - 1 in
      Ir_vm.save_carried vm r.t_regs ~at:(j * Array.length (Ir_vm.carried vm));
      Array.blit cw 0 r.t_bits (j * n_words) n_words;
      r.t_metric.(j) <- !metric
    | _ -> ());
    if tuple = !next_check then begin
      let j = ((tuple - delta + 1) / from.t_every) - 1 in
      if
        Ir_vm.carried_equal vm from.t_regs ~at:(j * Array.length (Ir_vm.carried vm))
        && words_equal cw from.t_bits ~at:(j * n_words) n_words
      then begin
        metric := !metric + from.t_total - from.t_metric.(j);
        x.rejoined <- n - 1 - tuple;
        stop := tuple + 1
      end
      else begin
        let t = tuple + from.t_every in
        next_check := if t <= n - 2 then t else max_int
      end
    end;
    Ir_vm.clear_probes l;
    curr := l;
    last := c
  done;
  Ir_vm.clear_probes !last;
  (match record with Some r -> r.t_total <- !metric | None -> ());
  ((if x.use_metric then !metric else 0), !fresh, n)

(* The whole tuples [a] and [b] share from the start, at most
   [limit]: compared eight bytes at a time, then byte by byte. *)
let common_tuples ~tuple_len a b limit =
  let len = min (min (Bytes.length a) (Bytes.length b)) (limit * tuple_len) in
  let i = ref 0 in
  while !i + 8 <= len && Int64.equal (Bytes.get_int64_ne a !i) (Bytes.get_int64_ne b !i) do
    i := !i + 8
  done;
  while !i < len && Bytes.unsafe_get a !i = Bytes.unsafe_get b !i do
    incr i
  done;
  !i / tuple_len

(* The VM code an executor runs: the caller's prepared code (checked
   against [prog], so a mismatched pair fails here rather than
   fuzzing the wrong program), else a fresh [Ir_vm.prepare]. *)
let code_for ~fn ?code (prog : Ir.program) =
  match code with
  | Some c ->
    if (Ir_vm.code_linearized c).Ir_linearize.l_prog != prog then
      invalid_arg (fn ^ ": code was prepared from a different program");
    c
  | None -> Ir_vm.prepare prog

let executor ?code ~layout ~prog ~g_total ~max_tuples ~use_metric () =
  let vm = Ir_vm.of_code (code_for ~fn:"Fuzzer.executor" ?code prog) in
  { layout; vm; pa = Ir_vm.probes vm; pb = Ir_vm.fresh_probes vm; g_total; max_tuples; use_metric;
    rejoined = 0 }

let exec x ~fresh_cells data =
  run_one x ~fresh_cells ~parent:Bytes.empty ~from:no_trajectory ~start:0 ~record:None data

(* How many checkpoints a trajectory keeps at most: as many as fit in
   arrays of [Max_young_wosize] (256) words, so that a trajectory is
   allocated in the minor heap and, when its entry dies young — a
   campaign worker's corpus lives one short run — is never promoted;
   and never more than 32. An input of up to that many steps keeps one
   per step, a longer one one per [ceil (n / max_checkpoints)] steps; a
   resumed child re-runs fewer than [t_every] steps of its parent's
   prefix. *)
let max_checkpoints x =
  let stride = max (Array.length (Ir_vm.carried x.vm)) (Array.length x.pa.Ir_vm.p_bits) in
  max 1 (min 32 (256 / max 1 stride))

let record x data =
  let n = min (Layout.n_tuples x.layout data) x.max_tuples in
  let cap = max_checkpoints x in
  let every = max 1 ((n + cap - 1) / cap) in
  let points = n / every in
  let t =
    { t_n = n;
      t_every = every;
      t_regs = Array.make (points * Array.length (Ir_vm.carried x.vm)) 0.0;
      t_bits = Array.make (points * Array.length x.pa.Ir_vm.p_bits) 0;
      t_metric = Array.make points 0;
      t_total = 0 }
  in
  let _, fresh, _ =
    run_one x ~fresh_cells:(ref []) ~parent:Bytes.empty ~from:no_trajectory ~start:0
      ~record:(Some t) data
  in
  if fresh > 0 then invalid_arg "Fuzzer.record: the input had not run against this coverage";
  t

let resume_step x ~parent traj child =
  let s = common_tuples ~tuple_len:x.layout.Layout.tuple_len parent child traj.t_n in
  s - (s mod traj.t_every)

let exec_child x ~fresh_cells ~parent traj child =
  run_one x ~fresh_cells ~parent ~from:traj ~start:(resume_step x ~parent traj child) ~record:None
    child

let rejoined x = x.rejoined

(* Builds the per-input execution function; it returns (metric,
   fresh, iterations). [backend] has one value and selects nothing. *)
let make_executor ?code ~backend:Vm ~layout ~prog ~g_total ~max_tuples ~use_metric () =
  (* the trailing [()] makes the one-time set-up happen at this
     application even when the optional arguments are omitted —
     otherwise OCaml defers optional-argument discharge (and this
     whole body) to the first positional application, i.e. to every
     input *)
  let x = executor ?code ~layout ~prog ~g_total ~max_tuples ~use_metric () in
  exec x

(* Retained for the benchmark's [fuzzer.batch_exec_us] row: runs up to
   [k] inputs through one scalar executor in input order and returns
   the summed (metric, fresh, iterations). *)
let make_batch_executor ?code ~k ~layout ~prog ~g_total ~max_tuples ~use_metric () =
  let run_input =
    make_executor ?code ~backend:Vm ~layout ~prog ~g_total ~max_tuples ~use_metric ()
  in
  let fresh_cells = ref [] in
  fun (children : Bytes.t array) ->
    if Array.length children > k then
      invalid_arg "Fuzzer.make_batch_executor: more than k inputs";
    Array.fold_left
      (fun (metric, fresh, iters) data ->
        fresh_cells := [];
        let m, f, i = run_input ~fresh_cells data in
        (metric + m, fresh + f, iters + i))
      (0, 0, 0) children

(* the parent of an input that has none (seeds, and children of a
   never-run random tuple) *)
let no_parent = { data = Bytes.empty; score = 0; traj = no_trajectory }

let count_covered g_total =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) g_total;
  !n

(* Corpus selection: 2-way tournament biased to the higher score;
   shorter inputs win ties (LibFuzzer's small-input preference).
   [n] is the fill count — only the first [n] slots are live. *)
let select_entry rng corpus n =
  let a = corpus.(Rng.int rng n) in
  let b = corpus.(Rng.int rng n) in
  let hi, lo =
    if a.score > b.score || (a.score = b.score && Bytes.length a.data <= Bytes.length b.data)
    then (a, b)
    else (b, a)
  in
  if Rng.int rng 10 < 8 then hi else lo

(* Handles for the fuzzing loop's metrics, created once per run so the
   hot loop only ever touches Atomic counters. All of this is behind
   [Metrics.collecting]: with collection off the loop pays a single
   boolean load and none of these exist. *)
type obs_handles = {
  ob_picked : Metrics.counter array;  (* per Mutate.strategy, picked *)
  ob_new_cov : Metrics.counter array;  (* ... found new coverage *)
  ob_kept : Metrics.counter array;  (* ... admitted to the corpus *)
  ob_executions : Metrics.counter;
  ob_iterations : Metrics.counter;
  ob_resumed : Metrics.counter;  (* iterations skipped by parent-prefix resume *)
  ob_rejoined : Metrics.counter;  (* ... and by parent-suffix rejoin *)
  ob_execs_per_s : Metrics.gauge;
  ob_covered : Metrics.gauge;
  ob_corpus : Metrics.gauge;
  ob_schedule_ns : Metrics.histogram;  (* parent selection + mutation *)
  ob_exec_ns : Metrics.histogram;  (* one input through the backend *)
  ob_metric_ns : Metrics.histogram;  (* scoring + corpus admission *)
}

let make_obs_handles () =
  let per_strategy name help =
    Array.map
      (fun s -> Metrics.counter ~help ~labels:[ ("strategy", Mutate.strategy_name s) ] name)
      Mutate.all_strategies
  in
  {
    ob_picked = per_strategy "cftcg_fuzz_strategy_picked_total" "Mutations applied per strategy";
    ob_new_cov =
      per_strategy "cftcg_fuzz_strategy_new_coverage_total"
        "Mutations that lit a previously-unseen probe, per strategy";
    ob_kept =
      per_strategy "cftcg_fuzz_strategy_kept_total"
        "Mutations whose result entered the corpus, per strategy";
    ob_executions =
      Metrics.counter ~help:"Inputs executed by the fuzzing loop" "cftcg_fuzz_executions_total";
    ob_iterations =
      Metrics.counter ~help:"Model iterations executed" "cftcg_fuzz_iterations_total";
    ob_resumed =
      Metrics.counter
        ~help:"Model iterations of cftcg_fuzz_iterations_total skipped by resuming from a parent's saved state"
        "cftcg_fuzz_resumed_iterations_total";
    ob_rejoined =
      Metrics.counter
        ~help:"Model iterations of cftcg_fuzz_iterations_total skipped by rejoining a parent's saved state on a shared input tail"
        "cftcg_fuzz_rejoined_iterations_total";
    ob_execs_per_s =
      Metrics.gauge ~help:"Recent fuzzing throughput (wall clock)" "cftcg_fuzz_execs_per_second";
    ob_covered = Metrics.gauge ~help:"Probe cells covered" "cftcg_fuzz_probes_covered";
    ob_corpus = Metrics.gauge ~help:"Live corpus entries" "cftcg_fuzz_corpus_size";
    ob_schedule_ns =
      Metrics.histogram ~help:"Corpus scheduling + mutation time per input (ns, sampled)"
        "cftcg_fuzz_schedule_ns";
    ob_exec_ns =
      Metrics.histogram ~help:"Backend execution time per input (ns, sampled)"
        "cftcg_fuzz_exec_ns";
    ob_metric_ns =
      Metrics.histogram ~help:"Metric scoring + corpus admission time per input (ns, sampled)"
        "cftcg_fuzz_metric_ns";
  }

(* hot loops sample timing histograms on every [sample_mask + 1]-th
   execution: cheap enough to leave on, dense enough to be useful *)
let sample_mask = 255

(* sleep per fired Exec_stall fault — long enough that a handful of
   stalls trips a sub-second wall deadline, short enough that armed
   test runs stay fast *)
let exec_stall_seconds = 0.002

let run ?(config = default_config) ?code ?(on_test_case = fun _ -> ())
    ?(on_progress = fun _ -> ()) ?(progress_every = 1024) ?(should_stop = fun () -> false)
    ?coverage_series (prog : Ir.program) budget =
  Trace.with_span "fuzzer.run" @@ fun () ->
  let layout = Layout.with_ranges (Layout.of_program prog) config.ranges in
  if layout.Layout.tuple_len = 0 then invalid_arg "Fuzzer.run: model has no inports";
  let observing = Metrics.collecting () in
  let obs = if observing then Some (make_obs_handles ()) else None in
  let rng = Rng.create config.seed in
  let n_probes = max prog.Ir.n_probes 1 in
  let g_total = Bytes.make n_probes '\000' in
  (* the optimizer runs at most once per run, and not at all when the
     caller (a campaign) hands its own prepared code in *)
  let code =
    Trace.with_span "fuzzer.compile" @@ fun () ->
    code_for ~fn:"Fuzzer.run" ?code prog
  in
  let x =
    executor ~code ~layout ~prog ~g_total ~max_tuples:config.max_tuples
      ~use_metric:config.iteration_metric ()
  in
  Log.debug "fuzzer run start: seed %Ld" config.seed;
  let dict = if config.use_dictionary then Some (Dictionary.of_program prog) else None in
  let start = Unix.gettimeofday () in
  let deadline_execs, deadline_time =
    match budget with
    | Time_budget s -> (max_int, start +. s)
    | Exec_budget n -> (n, Float.infinity)
    | Wall_budget { max_execs; max_seconds } -> (max_execs, start +. max_seconds)
  in
  (* preallocated to corpus_cap: admission is O(1) until the cap,
     then O(n) eviction of the worst entry — never Array.append *)
  let corpus = Array.make (max config.corpus_cap 0) no_parent in
  let corpus_n = ref 0 in
  let suite = ref [] in
  let failures = ref [] in
  let executions = ref 0 in
  let iterations = ref 0 in
  (* Exec-budget runs use a virtual clock (the execution index) so
     same-seed runs are byte-identical, timestamps included; wall
     clock is only read under a time budget. Wall_budget stays on the
     virtual clock too — its wall deadline bounds the run but never
     feeds timestamps, so runs the deadline does not cut short are
     byte-identical to the plain Exec_budget run. *)
  let elapsed_now () =
    match budget with
    | Exec_budget _ | Wall_budget _ -> float_of_int !executions
    | Time_budget _ -> Unix.gettimeofday () -. start
  in
  let snapshot () =
    {
      executions = !executions;
      iterations = !iterations;
      elapsed = elapsed_now ();
      corpus_size = !corpus_n;
      probes_covered = count_covered g_total;
      probes_total = prog.Ir.n_probes;
    }
  in
  let assertion_message = Hashtbl.create 4 in
  Array.iter (fun (cell, msg) -> Hashtbl.replace assertion_message cell msg) prog.Ir.assertions;
  let fresh_cells = ref [] in
  (* the best score in the corpus: scores never change, and eviction
     drops a lowest-score entry for one scoring at least as high, so a
     running maximum over admitted entries is the corpus maximum *)
  let best_score = ref 0 in
  let add_to_corpus e =
    if !corpus_n < Array.length corpus then begin
      corpus.(!corpus_n) <- e;
      incr corpus_n;
      if e.score > !best_score then best_score := e.score
    end
    else if Array.length corpus > 0 then begin
      (* evict the lowest-score entry *)
      let worst = ref 0 in
      for i = 1 to !corpus_n - 1 do
        if corpus.(i).score < corpus.(!worst).score then worst := i
      done;
      if corpus.(!worst).score <= e.score then begin
        corpus.(!worst) <- e;
        if e.score > !best_score then best_score := e.score
      end
    end
  in
  (* running covered count (= popcount of g_total), maintained for the
     coverage series and gauges without rescanning the byte array *)
  let covered_run = ref 0 in
  (* Accounting for one executed input — everything downstream of the
     backend call: counters, suite and failure capture, corpus
     admission, per-strategy attribution. [fresh_cells] must hold the
     input's newly-covered cells, latest first. [strat] is the
     mutation strategy index, -1 for seeds and blind mutation. *)
  let account data ~metric ~fresh ~iters ~strat =
    incr executions;
    iterations := !iterations + iters;
    covered_run := !covered_run + fresh;
    let at_progress = !executions mod progress_every = 0 in
    (match obs with
    | Some ob when at_progress ->
      let wall = Unix.gettimeofday () -. start in
      Metrics.set ob.ob_execs_per_s (float_of_int !executions /. Float.max wall 1e-9);
      Metrics.set ob.ob_covered (float_of_int !covered_run);
      Metrics.set ob.ob_corpus (float_of_int !corpus_n)
    | _ -> ());
    if at_progress then on_progress (snapshot ());
    if fresh > 0 then begin
      let now = elapsed_now () in
      (match coverage_series with
      | Some s -> Series.record s ~time:now ~execs:!executions ~covered:!covered_run
      | None -> ());
      let tc = { tc_data = data; tc_time = now; tc_new_probes = fresh } in
      suite := tc :: !suite;
      on_test_case tc;
      (* assertion cells firing for the first time are failures *)
      List.iter
        (fun cell ->
          match Hashtbl.find_opt assertion_message cell with
          | Some msg -> failures := { f_data = data; f_time = now; f_message = msg } :: !failures
          | None -> ())
        !fresh_cells
    end;
    (* interesting inputs enter the corpus: new coverage always,
       otherwise a high per-iteration difference metric *)
    let score = entry_score ~fresh ~metric:(if config.iteration_metric then metric else 0) ~iters in
    let interesting =
      fresh > 0
      || (config.iteration_metric && score > 0 && (!corpus_n < 8 || score > !best_score / 2))
    in
    if interesting then add_to_corpus { data; score; traj = no_trajectory };
    match obs with
    | Some ob when strat >= 0 ->
      Metrics.inc ob.ob_picked.(strat);
      if fresh > 0 then Metrics.inc ob.ob_new_cov.(strat);
      if interesting then Metrics.inc ob.ob_kept.(strat)
    | _ -> ()
  in
  (* Parent-prefix resume and suffix rejoin. A corpus entry records
     its trajectory the first time a child of it runs, by running the
     entry again from reset; that leaves [g_total] as it is, since the
     entry set every probe it fires when it ran. *)
  let resumed = ref 0 and rejoined = ref 0 in
  (* one input through the executor, then its accounting; [parent] is
     the corpus entry it was mutated from, [no_parent] if none *)
  let execute ~strat ~parent data =
    fresh_cells := [];
    (* sampled timings: every [sample_mask+1]-th execution reads the
       clock around the backend call and the scoring/admission tail *)
    let timed = observing && !executions land sample_mask = 0 in
    let t0 = if timed then Unix.gettimeofday () else 0.0 in
    let start =
      if parent == no_parent then 0
      else begin
        if parent.traj == no_trajectory then parent.traj <- record x parent.data;
        resume_step x ~parent:parent.data parent.traj data
      end
    in
    resumed := !resumed + start;
    let metric, fresh, iters =
      run_one x ~fresh_cells ~parent:parent.data ~from:parent.traj ~start ~record:None data
    in
    rejoined := !rejoined + x.rejoined;
    let t1 = if timed then Unix.gettimeofday () else 0.0 in
    account data ~metric ~fresh ~iters ~strat;
    match obs with
    | Some ob when timed ->
      let t2 = Unix.gettimeofday () in
      Metrics.observe ob.ob_exec_ns ((t1 -. t0) *. 1e9);
      Metrics.observe ob.ob_metric_ns ((t2 -. t1) *. 1e9)
    | _ -> ()
  in
  (* runs [children.(0 .. n-1)] in order, strategy indices and
     parents alongside in [strats] and [parents] *)
  let process children strats parents n =
    for d = 0 to n - 1 do
      execute ~strat:strats.(d) ~parent:parents.(d) children.(d)
    done
  in
  (* User-provided seed corpus first, then a handful of random short
     streams, processed as one draft. Execution consumes no
     randomness, so drawing the random streams upfront leaves the RNG
     stream identical to drawing each just before its run. *)
  Trace.with_span "fuzzer.seed_corpus" (fun () ->
      let seeds = Array.of_list config.seeds in
      let randoms =
        Array.init 4 (fun _ ->
            let tuples = 1 + Rng.int rng 8 in
            Bytes.concat Bytes.empty
              (List.init tuples (fun _ -> Layout.random_tuple_bytes layout rng)))
      in
      let all = Array.append seeds randoms in
      (* The seed draft respects the exec budget like the main loop
         does: a campaign's redistributed corpus (solver-injected
         seeds included) can be larger than a small scheduler grant,
         and the accounting that charges tenants per epoch assumes
         the budget is never overshot. Clipping changes only how many
         seeds run, never the RNG stream — the random streams were
         drawn above either way. *)
      let n = min (Array.length all) (max 0 (deadline_execs - !executions)) in
      process all (Array.make (Array.length all) (-1))
        (Array.make (Array.length all) no_parent) n);
  let max_len = config.max_tuples * layout.Layout.tuple_len in
  let should_continue () =
    !executions < deadline_execs
    && ((not (Float.is_finite deadline_time)) || Unix.gettimeofday () < deadline_time)
    && not (should_stop ())
  in
  (* Main loop: children are drafted in generations of [draft_size]
     against a corpus frozen for the generation, then executed and
     accounted in draft order. Execution consumes no randomness, so
     the campaign transcript is a function of the seed alone. The
     generation is clipped to the remaining exec budget so Exec_budget
     runs stop on exactly the budget. *)
  let draft = Array.make draft_size Bytes.empty in
  let draft_strat = Array.make draft_size (-1) in
  let draft_parent = Array.make draft_size no_parent in
  while should_continue () do
    let gen = min draft_size (deadline_execs - !executions) in
    for d = 0 to gen - 1 do
      (* fault injection: a stalled target is simulated by sleeping, so
         wall-deadline shutdown is testable; one atomic load when off *)
      if Fault.fire Fault.Exec_stall then Unix.sleepf exec_stall_seconds;
      let timed = observing && (!executions + d) land sample_mask = 0 in
      let t0 = if timed then Unix.gettimeofday () else 0.0 in
      (* with an empty corpus the parent is a fresh random tuple that
         never ran, so there is no prefix to resume *)
      let parent = if !corpus_n = 0 then no_parent else select_entry rng corpus !corpus_n in
      let pdata = if !corpus_n = 0 then Layout.random_tuple_bytes layout rng else parent.data in
      draft_parent.(d) <- parent;
      let other = if !corpus_n = 0 then pdata else (select_entry rng corpus !corpus_n).data in
      (if config.field_aware then begin
         let s, c = Mutate.mutate ?dict layout rng pdata ~other ~max_tuples:config.max_tuples in
         draft_strat.(d) <- Mutate.strategy_index s;
         draft.(d) <- c
       end
       else begin
         draft_strat.(d) <- -1;
         draft.(d) <- Mutate.mutate_blind rng pdata ~other ~max_len
       end);
      match obs with
      | Some ob when timed ->
        Metrics.observe ob.ob_schedule_ns ((Unix.gettimeofday () -. t0) *. 1e9)
      | _ -> ()
    done;
    process draft draft_strat draft_parent gen
  done;
  (match obs with
  | Some ob ->
    Metrics.add ob.ob_executions !executions;
    Metrics.add ob.ob_iterations !iterations;
    Metrics.add ob.ob_resumed !resumed;
    Metrics.add ob.ob_rejoined !rejoined;
    let wall = Unix.gettimeofday () -. start in
    Metrics.set ob.ob_execs_per_s (float_of_int !executions /. Float.max wall 1e-9);
    Metrics.set ob.ob_covered (float_of_int !covered_run);
    Metrics.set ob.ob_corpus (float_of_int !corpus_n)
  | None -> ());
  (match coverage_series with
  | Some s -> Series.record s ~time:(elapsed_now ()) ~execs:!executions ~covered:!covered_run
  | None -> ());
  Log.debug "fuzzer run done: %d execs, %d/%d probes, corpus %d" !executions !covered_run
    prog.Ir.n_probes !corpus_n;
  { test_suite = List.rev !suite; failures = List.rev !failures; stats = snapshot () }

let replay_metric ?(config = default_config) (prog : Ir.program) data =
  let layout = Layout.of_program prog in
  let g_total = Bytes.make (max prog.Ir.n_probes 1) '\000' in
  (* one input: the optimizer would cost more than it saves, and the
     metric does not depend on it *)
  let run_input =
    make_executor ~code:(Ir_vm.prepare ~optimize:false prog) ~backend:Vm ~layout ~prog ~g_total
      ~max_tuples:config.max_tuples ~use_metric:true ()
  in
  let metric, _, _ = run_input ~fresh_cells:(ref []) data in
  metric

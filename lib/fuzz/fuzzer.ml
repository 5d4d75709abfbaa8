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

type entry = {
  data : Bytes.t;
  score : int;
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

(* Executes one input through the fuzz driver: Algorithm 1.
   [g_total] is the campaign-global coverage array; returns
   (iteration-difference metric, newly covered probe count,
   iterations executed). Double-buffers two probe records ([pa], [pb])
   and works on their bit-words: per word, [d = c lxor l] is the
   symmetric difference of consecutive steps' probe sets, and its
   popcount adds to the metric. Only [d land c] — probes that fired
   now but not on the previous step — can be new to the campaign:
   every probe that fired on the previous step was checked against
   [g_total] then (the first step's [l] is empty, so all of its probes
   are checked). Fresh cells of one step come out in ascending id
   order. Both buffers must be empty on entry; they are left empty on
   return. *)
let run_one ~layout ~vm ~pa ~pb ~g_total ~max_tuples ~use_metric ~fresh_cells data =
  let n = min (Layout.n_tuples layout data) max_tuples in
  Ir_vm.set_probes vm pa;
  Ir_vm.reset vm;
  (* init-block probes are warm-up, not coverage *)
  Ir_vm.clear_probes pa;
  let n_words = Array.length pa.Ir_vm.p_bits in
  let curr = ref pa in
  let last = ref pb in
  let metric = ref 0 in
  let fresh = ref 0 in
  for tuple = 0 to n - 1 do
    let c = !curr in
    let l = !last in
    Ir_vm.set_probes vm c;
    Layout.load_tuple_vm layout data ~tuple vm;
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
    Ir_vm.clear_probes l;
    curr := l;
    last := c
  done;
  Ir_vm.clear_probes !last;
  ((if use_metric then !metric else 0), !fresh, n)

(* The VM code an executor runs: the caller's prepared code (checked
   against [prog], so a mismatched pair fails here rather than
   fuzzing the wrong program), else a fresh [Ir_vm.prepare]. *)
let code_for ~fn ?code (prog : Ir.program) =
  match code with
  | Some c ->
    if (c : Ir_vm.code :> Ir_linearize.t).Ir_linearize.l_prog != prog then
      invalid_arg (fn ^ ": code was prepared from a different program");
    c
  | None -> Ir_vm.prepare prog

(* Builds the per-input execution function; it returns (metric,
   fresh, iterations). [backend] has one value and selects nothing. *)
let make_executor ?code ~backend:Vm ~layout ~(prog : Ir.program) ~g_total
    ~max_tuples ~use_metric () =
  (* the trailing [()] makes the one-time set-up happen at this
     application even when the optional arguments are omitted —
     otherwise OCaml defers optional-argument discharge (and this
     whole body) to the first positional application, i.e. to every
     input *)
  let vm = Ir_vm.of_code (code_for ~fn:"Fuzzer.make_executor" ?code prog) in
  let pa = Ir_vm.probes vm in
  let pb = Ir_vm.fresh_probes vm in
  fun ~fresh_cells data ->
    run_one ~layout ~vm ~pa ~pb ~g_total ~max_tuples ~use_metric ~fresh_cells data

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
  let run_input =
    make_executor ~code ~backend:Vm ~layout ~prog ~g_total ~max_tuples:config.max_tuples
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
  let corpus = Array.make (max config.corpus_cap 0) { data = Bytes.empty; score = 0 } in
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
    if interesting then add_to_corpus { data; score };
    match obs with
    | Some ob when strat >= 0 ->
      Metrics.inc ob.ob_picked.(strat);
      if fresh > 0 then Metrics.inc ob.ob_new_cov.(strat);
      if interesting then Metrics.inc ob.ob_kept.(strat)
    | _ -> ()
  in
  (* one input through the executor, then its accounting *)
  let execute ~strat data =
    fresh_cells := [];
    (* sampled timings: every [sample_mask+1]-th execution reads the
       clock around the backend call and the scoring/admission tail *)
    let timed = observing && !executions land sample_mask = 0 in
    let t0 = if timed then Unix.gettimeofday () else 0.0 in
    let metric, fresh, iters = run_input ~fresh_cells data in
    let t1 = if timed then Unix.gettimeofday () else 0.0 in
    account data ~metric ~fresh ~iters ~strat;
    match obs with
    | Some ob when timed ->
      let t2 = Unix.gettimeofday () in
      Metrics.observe ob.ob_exec_ns ((t1 -. t0) *. 1e9);
      Metrics.observe ob.ob_metric_ns ((t2 -. t1) *. 1e9)
    | _ -> ()
  in
  (* runs [children.(0 .. n-1)] in order, strategy indices alongside
     in [strats] *)
  let process children strats n =
    for d = 0 to n - 1 do
      execute ~strat:strats.(d) children.(d)
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
      process all (Array.make (Array.length all) (-1)) n);
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
  while should_continue () do
    let gen = min draft_size (deadline_execs - !executions) in
    for d = 0 to gen - 1 do
      (* fault injection: a stalled target is simulated by sleeping, so
         wall-deadline shutdown is testable; one atomic load when off *)
      if Fault.fire Fault.Exec_stall then Unix.sleepf exec_stall_seconds;
      let timed = observing && (!executions + d) land sample_mask = 0 in
      let t0 = if timed then Unix.gettimeofday () else 0.0 in
      let parent =
        if !corpus_n = 0 then { data = Layout.random_tuple_bytes layout rng; score = 0 }
        else select_entry rng corpus !corpus_n
      in
      let other = if !corpus_n = 0 then parent.data else (select_entry rng corpus !corpus_n).data in
      (if config.field_aware then begin
         let s, c =
           Mutate.mutate ?dict layout rng parent.data ~other ~max_tuples:config.max_tuples
         in
         draft_strat.(d) <- Mutate.strategy_index s;
         draft.(d) <- c
       end
       else begin
         draft_strat.(d) <- -1;
         draft.(d) <- Mutate.mutate_blind rng parent.data ~other ~max_len
       end);
      match obs with
      | Some ob when timed ->
        Metrics.observe ob.ob_schedule_ns ((Unix.gettimeofday () -. t0) *. 1e9)
      | _ -> ()
    done;
    process draft draft_strat gen
  done;
  (match obs with
  | Some ob ->
    Metrics.add ob.ob_executions !executions;
    Metrics.add ob.ob_iterations !iterations;
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

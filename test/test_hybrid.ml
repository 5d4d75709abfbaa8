(* Tests for the CFTCG+Solver hybrid pipeline (the paper's §5
   future-work design). *)

open Cftcg_model
module B = Build
module Codegen = Cftcg_codegen.Codegen
module Hybrid = Cftcg_baselines.Hybrid
module Fuzzer = Cftcg_fuzz.Fuzzer
module Recorder = Cftcg_coverage.Recorder

(* The paper's hard case: a branch guarded by an exact cross-inport
   relation (here u2 = u1 + 1234567890). Random fuzzing essentially never
   hits it; branch-distance descent does. *)
let cross_constraint_model () =
  let b = B.create "CrossConstraint" in
  let u1 = B.inport b "u1" Dtype.Int32 in
  let u2 = B.inport b "u2" Dtype.Int32 in
  let expected = B.bias b 1234567890.0 (B.convert b Dtype.Float64 u1) in
  let matched = B.relational b Graph.R_eq (B.convert b Dtype.Float64 u2) expected in
  let y = B.switch b (B.const_f b 1.) matched (B.const_f b 0.) in
  B.outport b "y" y;
  B.finish b

let replay prog suite = Cftcg.Evaluate.replay prog suite

let test_hybrid_solves_cross_constraint () =
  let prog = Codegen.lower (cross_constraint_model ()) in
  (* pure fuzzing: the equality branch stays uncovered *)
  let fuzz =
    Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 9L } prog
      (Fuzzer.Exec_budget 30_000)
  in
  let fuzz_report =
    replay prog (List.map (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data) fuzz.Fuzzer.test_suite)
  in
  Alcotest.(check bool)
    (Printf.sprintf "fuzzing alone misses the equality (%.0f%%)" fuzz_report.Recorder.decision_pct)
    true
    (fuzz_report.Recorder.decision_pct < 100.0);
  (* hybrid: the solver phase closes it *)
  let r =
    Hybrid.run
      ~config:{ Hybrid.seed = 9L; fuzz_fraction = 0.25 }
      prog ~time_budget:6.0
  in
  let report = replay prog (List.map (fun (tc : Hybrid.test_case) -> tc.Hybrid.data) r.Hybrid.suite) in
  Alcotest.(check (float 0.01)) "hybrid reaches 100% decision" 100.0 report.Recorder.decision_pct;
  Alcotest.(check bool) "solver did work" true (r.Hybrid.solver_executions > 0);
  Alcotest.(check bool) "solver closed objectives" true (r.Hybrid.solver_solved > 0)

let test_hybrid_not_worse_than_fuzzing () =
  let m = Fixtures.arith_model () in
  let prog = Codegen.lower m in
  let fuzz =
    Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 2L } prog
      (Fuzzer.Time_budget 0.5)
  in
  let fuzz_report =
    replay prog (List.map (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data) fuzz.Fuzzer.test_suite)
  in
  let hybrid = Hybrid.run ~config:{ Hybrid.default_config with Hybrid.seed = 2L } prog ~time_budget:1.0 in
  let hybrid_report =
    replay prog (List.map (fun (tc : Hybrid.test_case) -> tc.Hybrid.data) hybrid.Hybrid.suite)
  in
  Alcotest.(check bool) "hybrid >= fuzz decision coverage" true
    (hybrid_report.Recorder.decision_pct >= fuzz_report.Recorder.decision_pct -. 0.01)

let test_hybrid_timestamps_ordered () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let r = Hybrid.run prog ~time_budget:0.5 in
  let rec ordered = function
    | (a : Hybrid.test_case) :: (b :: _ as rest) -> a.Hybrid.time <= b.Hybrid.time && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (ordered r.Hybrid.suite)

(* --- Hybrid concolic campaigns: plateau → solve → resume --- *)

module Campaign = Cftcg_campaign.Campaign

(* The example's rolling-code protocol: the unlock path needs
   Response = Challenge + 0x2F1A6B3C exactly, and the lockout states
   behind it need the unlock to happen (or fail) across iterations —
   coverage pure fuzzing never reaches. *)
let rolling_code_model () =
  let b = B.create "RollingCode" in
  let challenge = B.inport b "Challenge" Dtype.Int32 in
  let response = B.inport b "Response" Dtype.Int32 in
  let expected = B.bias b (float_of_int 0x2F1A6B3C) (B.convert b Dtype.Float64 challenge) in
  let ok = B.relational b ~name:"KeyCheck" Graph.R_eq (B.convert b Dtype.Float64 response) expected in
  let attempts = B.counter b ~name:"Lockout" 5 (B.not_ b ok) in
  let locked = B.compare_const b ~name:"Locked" Graph.R_ge 5.0 attempts in
  let state =
    B.multiport_switch b ~name:"DoorState"
      (B.sum b
         [ B.const_f b 1.; B.convert b Dtype.Float64 ok;
           B.gain b 2. (B.convert b Dtype.Float64 locked) ])
      [ B.const_i b Dtype.Int32 0; B.const_i b Dtype.Int32 1; B.const_i b Dtype.Int32 2;
        B.const_i b Dtype.Int32 2 ]
  in
  B.outport b "DoorState" state;
  B.finish b

(* which decision blocks a merged suite leaves uncovered *)
let uncovered_blocks prog suite =
  List.map (fun (block, _, _) -> block) (Recorder.uncovered (Cftcg.Evaluate.record prog suite))

let campaign_config ?(jobs = 2) ?(stop_on_full = true) ~hybrid () =
  { Campaign.default_config with
    Campaign.jobs;
    seed = 9L;
    total_execs = 30_000;
    execs_per_epoch = 500;
    plateau_epochs = 2;
    stop_on_full;
    hybrid =
      (if hybrid then Some { Campaign.default_hybrid with Campaign.solver_execs = 15_000 }
       else None)
  }

let test_campaign_plateau_solve_resume () =
  let prog = Codegen.lower (rolling_code_model ()) in
  (* classic plateau stop: the KeyCheck equality (and the lockout
     states behind it) stay uncovered *)
  let fuzz_only = Campaign.run ~config:(campaign_config ~hybrid:false ()) prog in
  Alcotest.(check bool) "fuzz-only plateaus" true
    (fuzz_only.Campaign.stop_reason = Some Campaign.Plateau);
  Alcotest.(check int) "fuzz-only ran no solver phase" 0 fuzz_only.Campaign.solver_rounds;
  Alcotest.(check bool) "fuzz-only leaves KeyCheck uncovered" true
    (List.mem "KeyCheck" (uncovered_blocks prog fuzz_only.Campaign.suite));
  (* hybrid: the plateau becomes a solve-and-resume *)
  let hybrid = Campaign.run ~config:(campaign_config ~hybrid:true ()) prog in
  Alcotest.(check bool) "solver phase ran" true (hybrid.Campaign.solver_rounds > 0);
  Alcotest.(check bool) "solver closed probes" true (hybrid.Campaign.solver_solved > 0);
  Alcotest.(check bool)
    (Printf.sprintf "hybrid (%d) covers strictly more than fuzz-only (%d)"
       hybrid.Campaign.probes_covered fuzz_only.Campaign.probes_covered)
    true
    (hybrid.Campaign.probes_covered > fuzz_only.Campaign.probes_covered);
  Alcotest.(check (list string)) "hybrid covers every decision" []
    (uncovered_blocks prog hybrid.Campaign.suite);
  Alcotest.(check bool) "hybrid stops on full coverage" true
    (hybrid.Campaign.stop_reason = Some Campaign.Full_coverage);
  (* solver executions were charged against the campaign budget *)
  Alcotest.(check bool) "solver execs counted" true (hybrid.Campaign.solver_executions > 0);
  Alcotest.(check bool) "budget respected" true
    (hybrid.Campaign.executions <= (campaign_config ~hybrid:true ()).Campaign.total_execs)

let test_campaign_hybrid_deterministic () =
  (* stop_on_full off: the documented strictly-deterministic regime.
     Same seed, same worker count -> byte-identical results, including
     the solver phases' seeds, rounds and suite contributions. *)
  let prog = Codegen.lower (cross_constraint_model ()) in
  List.iter
    (fun jobs ->
      let config = campaign_config ~jobs ~stop_on_full:false ~hybrid:true () in
      let r1 = Campaign.run ~config prog and r2 = Campaign.run ~config prog in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: solver phase ran" jobs)
        true (r1.Campaign.solver_rounds > 0);
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: identical results" jobs)
        true (r1 = r2))
    [ 1; 2; 3 ]

let test_campaign_hybrid_obs_parity () =
  (* enabling the whole observability surface must not change what a
     hybrid campaign finds: instrumentation is observation-only *)
  let module Metrics = Cftcg_obs.Metrics in
  let module Trace = Cftcg_obs.Trace in
  let module Log = Cftcg_obs.Log in
  let module Flight = Cftcg_obs.Flight in
  let prog = Codegen.lower (cross_constraint_model ()) in
  let run ~jobs ~obs =
    Metrics.set_collect obs;
    Trace.set_enabled obs;
    Log.set_level (if obs then Some Log.Debug else None);
    Flight.set_enabled obs;
    Fun.protect
      ~finally:(fun () ->
        Metrics.set_collect false;
        Trace.set_enabled false;
        Trace.clear ();
        Log.set_level None;
        Flight.set_enabled false;
        Flight.clear ())
      (fun () ->
        Campaign.run ~config:(campaign_config ~jobs ~stop_on_full:false ~hybrid:true ()) prog)
  in
  List.iter
    (fun jobs ->
      let off = run ~jobs ~obs:false and on = run ~jobs ~obs:true in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: obs on/off byte-identical" jobs)
        true (off = on))
    [ 1; 2; 3 ]

module Worker_pool = Cftcg_campaign.Worker_pool
module Telemetry = Cftcg_campaign.Telemetry

(* Steps a campaign by hand until [until] holds or it finishes. *)
let step_until ?should_stop ?pool st ~until =
  while (not (Campaign.finished st)) && not (until st) do
    ignore (Campaign.step ?should_stop ?pool st)
  done

let test_campaign_hybrid_pool_capacity () =
  (* a solver phase split over two jobs borrows at most the pool's one
     slot, and finds exactly what it finds without a pool *)
  let prog = Codegen.lower (cross_constraint_model ()) in
  let config = campaign_config ~jobs:2 ~stop_on_full:false ~hybrid:true () in
  let solo = Campaign.run ~config prog in
  let st = Campaign.start ~config prog in
  step_until ~pool:(Worker_pool.create 1) st ~until:(fun _ -> false);
  let pooled = Campaign.finish st in
  Alcotest.(check bool) "a solver phase ran" true (pooled.Campaign.solver_rounds > 0);
  Alcotest.(check bool) "pooled = solo" true (pooled = solo)

let rounds st = (Campaign.progress st).Campaign.pg_solver_rounds

let tcp_prog () =
  let module Models = Cftcg_bench_models.Bench_models in
  Codegen.lower ~mode:Codegen.Full (Lazy.force (Option.get (Models.find "TCP")).Models.model)

let test_campaign_hybrid_cancel_mid_phase () =
  (* cancellation raised once a phase has begun reaches every shard:
     the phase returns with fewer executions than its budget, which
     TCP's solver otherwise spends in full *)
  let prog = tcp_prog () in
  let in_phase = Atomic.make false in
  let sink =
    { Telemetry.null with
      Telemetry.emit = (function Telemetry.Solver_phase _ -> Atomic.set in_phase true | _ -> ())
    }
  in
  let hybrid = { Campaign.default_hybrid with Campaign.solver_execs = 15_000 } in
  let config =
    { (campaign_config ~jobs:2 ~stop_on_full:false ~hybrid:true ()) with
      Campaign.sink;
      total_execs = 100_000;
      hybrid = Some hybrid }
  in
  let first_phase ?should_stop () =
    Atomic.set in_phase false;
    let st = Campaign.start ~config prog in
    step_until st ?should_stop ~until:(fun st -> rounds st > 0);
    Campaign.finish st
  in
  let full = first_phase () in
  Alcotest.(check int) "an uncancelled phase spends its budget" hybrid.Campaign.solver_execs
    full.Campaign.solver_executions;
  let r = first_phase ~should_stop:(fun () -> Atomic.get in_phase) () in
  Alcotest.(check int) "one solver phase ran" 1 r.Campaign.solver_rounds;
  Alcotest.(check bool)
    (Printf.sprintf "cancelled phase spent %d of %d execs" r.Campaign.solver_executions
       hybrid.Campaign.solver_execs)
    true
    (r.Campaign.solver_executions < hybrid.Campaign.solver_execs)

let test_campaign_hybrid_deadline_phase () =
  (* a phase that starts past [max_runtime] runs no solver execution *)
  let prog = Codegen.lower (rolling_code_model ()) in
  let config =
    { (campaign_config ~jobs:2 ~stop_on_full:false ~hybrid:true ()) with
      Campaign.plateau_epochs = 1;
      max_runtime = Some 0.0 }
  in
  let st = Campaign.start ~config prog in
  let steps = ref 0 in
  while rounds st = 0 && !steps < 50 do
    incr steps;
    ignore (Campaign.step st)
  done;
  let r = Campaign.finish st in
  Alcotest.(check bool) "a solver phase began" true (r.Campaign.solver_rounds > 0);
  Alcotest.(check int) "no solver executions past the deadline" 0 r.Campaign.solver_executions

let test_campaign_hybrid_shard_spans () =
  (* every phase traces one span per shard, whose executions add up to
     the campaign's solver executions *)
  let module Trace = Cftcg_obs.Trace in
  let prog = Codegen.lower (cross_constraint_model ()) in
  let r =
    Trace.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled false)
      (fun () ->
        Trace.clear ();
        Campaign.run ~config:(campaign_config ~jobs:3 ~stop_on_full:false ~hybrid:true ()) prog)
  in
  let shards =
    List.filter
      (fun (ev : Trace.event) -> ev.Trace.ev_name = "campaign.solver.shard")
      (Trace.events ())
  in
  Trace.clear ();
  let arg ev k = int_of_string (List.assoc k ev.Trace.ev_args) in
  Alcotest.(check int) "one span per shard per phase" (3 * r.Campaign.solver_rounds)
    (List.length shards);
  Alcotest.(check (list int)) "every shard traced" [ 0; 1; 2 ]
    (List.sort_uniq compare (List.map (fun ev -> arg ev "shard") shards));
  Alcotest.(check int) "shard executions sum to the solver's" r.Campaign.solver_executions
    (List.fold_left (fun acc ev -> acc + arg ev "executions") 0 shards);
  List.iter (fun ev -> ignore (arg ev "closed")) shards

let suites =
  [ ( "baselines.hybrid",
      [ Alcotest.test_case "solves cross-inport constraint" `Slow test_hybrid_solves_cross_constraint;
        Alcotest.test_case "not worse than fuzzing" `Slow test_hybrid_not_worse_than_fuzzing;
        Alcotest.test_case "timestamps ordered" `Quick test_hybrid_timestamps_ordered ] );
    ( "campaign.hybrid",
      [ Alcotest.test_case "plateau, solve, resume" `Slow test_campaign_plateau_solve_resume;
        Alcotest.test_case "same-seed runs byte-identical" `Slow test_campaign_hybrid_deterministic;
        Alcotest.test_case "observability parity" `Slow test_campaign_hybrid_obs_parity;
        Alcotest.test_case "pool capacity does not change results" `Slow
          test_campaign_hybrid_pool_capacity;
        Alcotest.test_case "cancellation stops a phase" `Slow
          test_campaign_hybrid_cancel_mid_phase;
        Alcotest.test_case "deadline stops a phase" `Slow test_campaign_hybrid_deadline_phase;
        Alcotest.test_case "one trace span per shard" `Slow test_campaign_hybrid_shard_spans ] ) ]

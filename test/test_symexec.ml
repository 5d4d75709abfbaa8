(* Tests for guard-chain analysis and the SLDV-substitute generator. *)

open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Guards = Cftcg_symexec.Guards
module Symexec = Cftcg_symexec.Symexec
module Recorder = Cftcg_coverage.Recorder

let test_guard_chains_shape () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let chains = Guards.probe_chains prog in
  Alcotest.(check int) "chain per probe" prog.Cftcg_ir.Ir.n_probes (Array.length chains);
  (* every decision-outcome probe sits under at least one If *)
  Array.iter
    (fun (d : Cftcg_ir.Ir.decision) ->
      Array.iter
        (fun p ->
          Alcotest.(check bool) "outcome probe is guarded" true (List.length chains.(p) >= 1))
        d.Cftcg_ir.Ir.outcome_probes)
    prog.Cftcg_ir.Ir.decisions

let test_guard_chain_polarity () =
  (* for a 2-outcome decision, outcome 0 and outcome 1 probes differ
     in the last chain entry's polarity *)
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let chains = Guards.probe_chains prog in
  Array.iter
    (fun (d : Cftcg_ir.Ir.decision) ->
      if d.Cftcg_ir.Ir.n_outcomes = 2 then begin
        let c0 = List.rev chains.(d.Cftcg_ir.Ir.outcome_probes.(0)) in
        let c1 = List.rev chains.(d.Cftcg_ir.Ir.outcome_probes.(1)) in
        match (c0, c1) with
        | (i0, p0) :: _, (i1, p1) :: _ ->
          Alcotest.(check int) "same innermost if" i0 i1;
          Alcotest.(check bool) "opposite polarity" true (p0 <> p1)
        | _ -> Alcotest.fail "missing chains"
      end)
    prog.Cftcg_ir.Ir.decisions

let test_n_ifs_positive () =
  let prog = Codegen.lower (Fixtures.arith_model ()) in
  let open Cftcg_ir in
  let vm = Ir_vm.of_code (Ir_vm.prepare ~branches:true prog) in
  Alcotest.(check bool) "has ifs" true (Bytes.length (Ir_vm.branches vm).Ir_vm.b_reached > 0)

let test_solver_covers_combinational_model () =
  (* the arith fixture is shallow: the solver should clear it fast *)
  let prog = Codegen.lower (Fixtures.arith_model ()) in
  let r =
    Symexec.run ~config:{ Symexec.default_config with Symexec.seed = 11L } prog (Symexec.Time_budget 5.0)
  in
  let suite = List.map (fun (tc : Symexec.test_case) -> tc.Symexec.data) r.Symexec.suite in
  let report = Cftcg.Evaluate.replay prog suite in
  Alcotest.(check bool)
    (Printf.sprintf "high decision coverage (%.0f%%)" report.Recorder.decision_pct)
    true
    (report.Recorder.decision_pct >= 90.0)

let test_solver_finds_exact_equality () =
  (* branch needs u == 12345: hopeless for pure random, easy for
     branch-distance descent *)
  let b = Build.create "Exact" in
  let u = Build.inport b "u" Dtype.Int32 in
  let hit = Build.compare_const b Graph.R_eq 12345.0 u in
  Build.outport b "y" hit;
  let prog = Codegen.lower (Build.finish b) in
  let r =
    Symexec.run ~config:{ Symexec.default_config with Symexec.seed = 1L } prog (Symexec.Time_budget 10.0)
  in
  let suite = List.map (fun (tc : Symexec.test_case) -> tc.Symexec.data) r.Symexec.suite in
  let report = Cftcg.Evaluate.replay prog suite in
  Alcotest.(check (float 0.01)) "both outcomes found" 100.0 report.Recorder.decision_pct

let test_solver_degrades_on_deep_state () =
  (* a branch that needs >= 40 consecutive enables exceeds the
     unrolling bounds: SLDV-like failure mode *)
  let b = Build.create "DeepCounter" in
  let en = Build.inport b "en" Dtype.Bool in
  let cnt = Build.counter b 100 en in
  let deep = Build.compare_const b Graph.R_ge 40.0 cnt in
  Build.outport b "y" deep;
  let prog = Codegen.lower (Build.finish b) in
  let config = { Symexec.default_config with Symexec.seed = 2L; Symexec.unroll_bounds = [ 1; 2; 4; 8 ] } in
  let r = Symexec.run ~config prog (Symexec.Time_budget 3.0) in
  let suite = List.map (fun (tc : Symexec.test_case) -> tc.Symexec.data) r.Symexec.suite in
  let report = Cftcg.Evaluate.replay prog suite in
  Alcotest.(check bool) "deep branch unreached" true (report.Recorder.decision_pct < 100.0)

let test_suite_timestamps_monotone () =
  let prog = Codegen.lower (Fixtures.arith_model ()) in
  let r = Symexec.run prog (Symexec.Time_budget 2.0) in
  let rec monotone = function
    | (a : Symexec.test_case) :: (b :: _ as rest) ->
      a.Symexec.time <= b.Symexec.time && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (monotone r.Symexec.suite)

(* --- Exec-budget mode (the hybrid campaign's solver clock) --- *)

let test_exec_budget_deterministic () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let run () =
    Symexec.run ~config:{ Symexec.default_config with Symexec.seed = 7L } prog
      (Symexec.Exec_budget 3_000)
  in
  let r1 = run () and r2 = run () in
  (* byte-identical INCLUDING suite data and timestamps: exec-budget
     runs read the virtual clock (execution index), never wall time *)
  Alcotest.(check bool) "identical results incl. suite and times" true (r1 = r2);
  Alcotest.(check bool) "budget respected" true (r1.Symexec.executions <= 3_000);
  List.iter
    (fun (tc : Symexec.test_case) ->
      Alcotest.(check bool) "timestamps are execution indices" true
        (Float.is_integer tc.Symexec.time && tc.Symexec.time >= 0.0))
    r1.Symexec.suite

let test_full_initial_coverage_short_circuits () =
  (* everything already covered: every target counts as solved and the
     solver never runs an execution *)
  let prog = Codegen.lower (Fixtures.arith_model ()) in
  let g = Bytes.make (max prog.Cftcg_ir.Ir.n_probes 1) '\001' in
  let r = Symexec.run ~initial_coverage:g prog (Symexec.Exec_budget 1_000) in
  Alcotest.(check int) "every target solved" r.Symexec.targets_total r.Symexec.targets_solved;
  Alcotest.(check int) "no executions spent" 0 r.Symexec.executions

let test_solved_count_consistency () =
  (* a solved target is a covered probe, so the counters can never
     disagree in that direction — the mid-escalation guard used to stop
     the search on a covered target without crediting it *)
  List.iter
    (fun seed ->
      let prog = Codegen.lower (Fixtures.logic_model ()) in
      let r =
        Symexec.run ~config:{ Symexec.default_config with Symexec.seed } prog
          (Symexec.Exec_budget 2_000)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: solved (%d) <= covered (%d)" seed r.Symexec.targets_solved
           r.Symexec.probes_covered)
        true
        (r.Symexec.targets_solved <= r.Symexec.probes_covered);
      Alcotest.(check bool) "solved bounded by total" true
        (r.Symexec.targets_solved <= r.Symexec.targets_total))
    [ 1L; 2L; 3L; 4L; 5L ]

(* --- Sharded phases (a campaign splits one phase across its jobs) --- *)

module Models = Cftcg_bench_models.Bench_models
module Rng = Cftcg_util.Rng

let test_shards_partition_targets () =
  (* for any coverage map and shard count, the shards' target lists are
     disjoint, keep the single shard's shallow-first order, and
     together hold every initially-uncovered probe *)
  let rng = Rng.create 77L in
  let bench =
    List.map
      (fun (e : Models.entry) ->
        (e.Models.name, Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model)))
      Models.all
  in
  let generated =
    List.init 40 (fun i ->
        let m = Model_gen.generate rng in
        (Printf.sprintf "model_gen %d" i, Codegen.lower ~mode:Codegen.Full m))
  in
  Alcotest.(check int) "8 bench models" 8 (List.length bench);
  List.iter
    (fun (name, prog) ->
      let n_probes = prog.Cftcg_ir.Ir.n_probes in
      let initial_coverage =
        Bytes.init (max n_probes 1) (fun _ -> if Rng.int rng 3 = 0 then '\001' else '\000')
      in
      let order = Symexec.shard_targets prog in
      Alcotest.(check (list int)) (name ^ ": one shard keeps every probe")
        (List.init n_probes Fun.id) (List.sort compare order);
      let position = Array.make (max n_probes 1) 0 in
      List.iteri (fun i t -> position.(t) <- i) order;
      for n = 2 to 4 do
        let owner = Array.make (max n_probes 1) (-1) in
        for k = 0 to n - 1 do
          let mine = Symexec.shard_targets ~shard:(k, n) ~initial_coverage prog in
          Alcotest.(check bool)
            (Printf.sprintf "%s: shard %d/%d keeps the shallow-first order" name k n)
            true
            (List.sort (fun a b -> compare position.(a) position.(b)) mine = mine);
          List.iter
            (fun t ->
              if owner.(t) <> -1 then
                Alcotest.failf "%s: probe %d in shards %d and %d of %d" name t owner.(t) k n;
              if Bytes.get initial_coverage t <> '\000' then
                Alcotest.failf "%s: covered probe %d handed to shard %d of %d" name t k n;
              owner.(t) <- k)
            mine
        done;
        for t = 0 to n_probes - 1 do
          if Bytes.get initial_coverage t = '\000' && owner.(t) = -1 then
            Alcotest.failf "%s: uncovered probe %d in no shard of %d" name t n
        done
      done)
    (bench @ generated)

let test_single_shard_is_unsharded () =
  (* shard (0, 1) over shared code and chains is the unsharded solver,
     byte for byte *)
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let config = { Symexec.default_config with Symexec.seed = 7L } in
  let plain = Symexec.run ~config prog (Symexec.Exec_budget 3_000) in
  let shared =
    Symexec.run ~config ~shard:(0, 1) ~code:(Symexec.prepare_code prog)
      ~chains:(Cftcg_symexec.Guards.probe_chains prog) prog (Symexec.Exec_budget 3_000)
  in
  Alcotest.(check bool) "identical results" true (plain = shared)

let test_sharded_run_stays_on_its_targets () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  let n_targets k = List.length (Symexec.shard_targets ~shard:(k, 2) prog) in
  let r = Symexec.run ~shard:(1, 2) prog (Symexec.Exec_budget 2_000) in
  Alcotest.(check int) "targets_total is the shard's" (n_targets 1) r.Symexec.targets_total;
  Alcotest.(check bool) "both shards have work" true (n_targets 0 > 0 && n_targets 1 > 0)

let bench_prog name =
  Codegen.lower ~mode:Codegen.Full (Lazy.force (Option.get (Models.find name)).Models.model)

let test_should_stop_ends_run () =
  (* flipping [should_stop] mid-run returns early with what was found;
     the same run without the hook spends the whole budget *)
  let prog = bench_prog "TCP" in
  let budget = 20_000 in
  let config = { Symexec.default_config with Symexec.seed = 3L } in
  let full = Symexec.run ~config prog (Symexec.Exec_budget budget) in
  Alcotest.(check int) "unstopped run spends the budget" budget full.Symexec.executions;
  let polls = ref 0 in
  let stopped =
    Symexec.run ~config
      ~should_stop:(fun () ->
        incr polls;
        !polls > 500)
      prog (Symexec.Exec_budget budget)
  in
  Alcotest.(check bool)
    (Printf.sprintf "stopped run (%d execs) ends well short of %d" stopped.Symexec.executions
       budget)
    true
    (stopped.Symexec.executions > 0 && stopped.Symexec.executions <= 500)

(* Solver allocation per execution. Each AVM candidate resumes from
   the best input's saved VM state and patches one encoded row, so an
   execution allocates about 160-180 minor words on TCP and RAC
   (re-encoding the whole input and replaying it from reset allocated
   about 540). The bound leaves headroom for compiler versions, not
   for a return to whole-input re-execution. *)
let test_minor_words_per_exec () =
  List.iter
    (fun name ->
      let prog = bench_prog name in
      let code = Symexec.prepare_code prog and chains = Cftcg_symexec.Guards.probe_chains prog in
      let config = { Symexec.default_config with Symexec.seed = 2L } in
      let run () = Symexec.run ~config ~code ~chains prog (Symexec.Exec_budget 15_000) in
      ignore (run ());
      let w0 = Gc.minor_words () in
      let r = run () in
      let per_exec = (Gc.minor_words () -. w0) /. float_of_int r.Symexec.executions in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words per solver execution (bound 300)" name per_exec)
        true (per_exec < 300.0))
    [ "TCP"; "RAC" ]

let test_rejects_nonpositive_bounds () =
  let prog = Codegen.lower (Fixtures.logic_model ()) in
  List.iter
    (fun unroll_bounds ->
      let config = { Symexec.default_config with Symexec.unroll_bounds } in
      Alcotest.check_raises "rejected" (Invalid_argument "Symexec.run: unroll bounds must be >= 1")
        (fun () -> ignore (Symexec.run ~config prog (Symexec.Exec_budget 100))))
    [ [ 0 ]; [ 1; 2; -4 ] ]

let suites =
  [ ( "symexec.guards",
      [ Alcotest.test_case "chain per probe" `Quick test_guard_chains_shape;
        Alcotest.test_case "polarity split" `Quick test_guard_chain_polarity;
        Alcotest.test_case "if count" `Quick test_n_ifs_positive ] );
    ( "symexec.solver",
      [ Alcotest.test_case "covers combinational" `Slow test_solver_covers_combinational_model;
        Alcotest.test_case "finds exact equality" `Slow test_solver_finds_exact_equality;
        Alcotest.test_case "degrades on deep state" `Slow test_solver_degrades_on_deep_state;
        Alcotest.test_case "timestamps monotone" `Quick test_suite_timestamps_monotone;
        Alcotest.test_case "exec-budget runs are deterministic" `Quick
          test_exec_budget_deterministic;
        Alcotest.test_case "full initial coverage short-circuits" `Quick
          test_full_initial_coverage_short_circuits;
        Alcotest.test_case "solved count consistent with coverage" `Quick
          test_solved_count_consistency;
        Alcotest.test_case "minor words per execution" `Quick test_minor_words_per_exec;
        Alcotest.test_case "non-positive unroll bounds rejected" `Quick
          test_rejects_nonpositive_bounds ] );
    ( "symexec.shard",
      [ Alcotest.test_case "shards partition the uncovered targets" `Quick
          test_shards_partition_targets;
        Alcotest.test_case "one shard is the unsharded solver" `Quick
          test_single_shard_is_unsharded;
        Alcotest.test_case "a shard runs only its targets" `Quick
          test_sharded_run_stays_on_its_targets;
        Alcotest.test_case "should_stop ends a run early" `Quick test_should_stop_ends_run ] ) ]

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
  let r = Symexec.run_timed ~config:{ Symexec.default_config with Symexec.seed = 11L } prog ~time_budget:5.0 in
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
  let r = Symexec.run_timed ~config:{ Symexec.default_config with Symexec.seed = 1L } prog ~time_budget:10.0 in
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
  let r = Symexec.run_timed ~config prog ~time_budget:3.0 in
  let suite = List.map (fun (tc : Symexec.test_case) -> tc.Symexec.data) r.Symexec.suite in
  let report = Cftcg.Evaluate.replay prog suite in
  Alcotest.(check bool) "deep branch unreached" true (report.Recorder.decision_pct < 100.0)

let test_suite_timestamps_monotone () =
  let prog = Codegen.lower (Fixtures.arith_model ()) in
  let r = Symexec.run_timed prog ~time_budget:2.0 in
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
          test_solved_count_consistency ] ) ]

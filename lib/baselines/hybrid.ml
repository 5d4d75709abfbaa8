open Cftcg_ir
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Symexec = Cftcg_symexec.Symexec

type config = {
  seed : int64;
  fuzz_fraction : float;
}

let default_config = { seed = 1L; fuzz_fraction = 0.6 }

type test_case = {
  data : Bytes.t;
  time : float;
}

type result = {
  suite : test_case list;
  fuzz_executions : int;
  solver_executions : int;
  solver_targets : int;
  solver_solved : int;
}

(* Replay a suite against the flat probe map to hand the solver an
   accurate picture of what fuzzing already covered. *)
let coverage_bitmap (prog : Ir.program) suite =
  let layout = Layout.of_program prog in
  (* unoptimized for the reason given in [Minimize.suite] *)
  let vm = Ir_vm.of_code (Ir_vm.prepare ~optimize:false prog) in
  (* the probe buffer is never cleared: its fired bytes accumulate the
     whole suite's coverage *)
  List.iter (Layout.run_case layout vm ~max_tuples:4096) suite;
  Bytes.copy (Ir_vm.probes vm).Ir_vm.p_fired

let run ?(config = default_config) (prog : Ir.program) ~time_budget =
  let fuzz_budget = time_budget *. config.fuzz_fraction in
  let fuzz =
    Fuzzer.run
      ~config:{ Fuzzer.default_config with Fuzzer.seed = config.seed }
      prog (Fuzzer.Time_budget fuzz_budget)
  in
  let fuzz_suite =
    List.map (fun (tc : Fuzzer.test_case) -> { data = tc.Fuzzer.tc_data; time = tc.Fuzzer.tc_time })
      fuzz.Fuzzer.test_suite
  in
  let bitmap = coverage_bitmap prog (List.map (fun tc -> tc.data) fuzz_suite) in
  let uncovered = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr uncovered) bitmap;
  let solver_budget = time_budget -. fuzz.Fuzzer.stats.Fuzzer.elapsed in
  let solver =
    Symexec.run
      ~config:{ Symexec.default_config with Symexec.seed = Int64.add config.seed 7L }
      ~initial_coverage:bitmap prog
      (Symexec.Time_budget (Float.max solver_budget 0.0))
  in
  let offset = fuzz.Fuzzer.stats.Fuzzer.elapsed in
  let solver_suite =
    List.map
      (fun (tc : Symexec.test_case) -> { data = tc.Symexec.data; time = tc.Symexec.time +. offset })
      solver.Symexec.suite
  in
  let suite = fuzz_suite @ solver_suite in
  let final_bitmap = coverage_bitmap prog (List.map (fun tc -> tc.data) suite) in
  let uncovered_after = ref 0 in
  Bytes.iter (fun c -> if c = '\000' then incr uncovered_after) final_bitmap;
  {
    suite;
    fuzz_executions = fuzz.Fuzzer.stats.Fuzzer.executions;
    solver_executions = solver.Symexec.executions;
    solver_targets = !uncovered;
    solver_solved = !uncovered - !uncovered_after;
  }

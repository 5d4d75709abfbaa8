open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Symexec = Cftcg_symexec.Symexec

type test_case = {
  data : Bytes.t;
  time : float;
}

type outcome = {
  tool_name : string;
  suite : test_case list;
  executions : int;
  iterations : int;
}

type t = {
  name : string;
  generate : Graph.t -> seed:int64 -> time_budget:float -> outcome;
}

let of_fuzzer_result name (r : Fuzzer.result) =
  {
    tool_name = name;
    suite =
      List.map
        (fun (tc : Fuzzer.test_case) -> { data = tc.Fuzzer.tc_data; time = tc.Fuzzer.tc_time })
        r.Fuzzer.test_suite;
    executions = r.Fuzzer.stats.Fuzzer.executions;
    iterations = r.Fuzzer.stats.Fuzzer.iterations;
  }

let fuzz_tool name ~mode ~field_aware ~iteration_metric ~use_dictionary =
  {
    name;
    generate =
      (fun m ~seed ~time_budget ->
        let prog = Codegen.lower ~mode m in
        let config =
          { Fuzzer.default_config with Fuzzer.seed; field_aware; iteration_metric; use_dictionary }
        in
        of_fuzzer_result name (Fuzzer.run ~config prog (Fuzzer.Time_budget time_budget)));
  }

let cftcg =
  fuzz_tool "CFTCG" ~mode:Codegen.Full ~field_aware:true ~iteration_metric:true
    ~use_dictionary:true

let fuzz_only =
  fuzz_tool "FuzzOnly" ~mode:Codegen.Branchless ~field_aware:false ~iteration_metric:false
    ~use_dictionary:false

let cftcg_variant ?(field_aware = true) ?(iteration_metric = true) ?(use_dictionary = true) name =
  fuzz_tool name ~mode:Codegen.Full ~field_aware ~iteration_metric ~use_dictionary

let sldv =
  {
    name = "SLDV";
    generate =
      (fun m ~seed ~time_budget ->
        let prog = Codegen.lower ~mode:Codegen.Full m in
        let config = { Symexec.default_config with Symexec.seed } in
        let r = Symexec.run ~config prog (Symexec.Time_budget time_budget) in
        {
          tool_name = "SLDV";
          suite =
            List.map
              (fun (tc : Symexec.test_case) -> { data = tc.Symexec.data; time = tc.Symexec.time })
              r.Symexec.suite;
          executions = r.Symexec.executions;
          iterations = 0;
        });
  }

let simcotest =
  {
    name = "SimCoTest";
    generate =
      (fun m ~seed ~time_budget ->
        let config = { Simcotest.default_config with Simcotest.seed } in
        let r = Simcotest.run ~config m ~time_budget in
        {
          tool_name = "SimCoTest";
          suite =
            List.map
              (fun (tc : Simcotest.test_case) ->
                { data = tc.Simcotest.data; time = tc.Simcotest.time })
              r.Simcotest.suite;
          executions = r.Simcotest.executions;
          iterations = r.Simcotest.iterations;
        });
  }

let cftcg_hybrid =
  {
    name = "CFTCG+Solver";
    generate =
      (fun m ~seed ~time_budget ->
        let prog = Codegen.lower ~mode:Codegen.Full m in
        let config = { Hybrid.default_config with Hybrid.seed } in
        let r = Hybrid.run ~config prog ~time_budget in
        {
          tool_name = "CFTCG+Solver";
          suite =
            List.map
              (fun (tc : Hybrid.test_case) -> { data = tc.Hybrid.data; time = tc.Hybrid.time })
              r.Hybrid.suite;
          executions = r.Hybrid.fuzz_executions + r.Hybrid.solver_executions;
          iterations = 0;
        });
  }

let all = [ cftcg; sldv; simcotest; fuzz_only; cftcg_hybrid ]

let by_name name = List.find_opt (fun t -> String.lowercase_ascii t.name = String.lowercase_ascii name) all

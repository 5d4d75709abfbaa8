(* Deep-state exploration: fuzz the TCP handshake model, track the
   deepest connection state any test case reaches, and replay the
   best test case step by step as a protocol trace.

   Reaching ESTABLISHED requires an exact 32-bit acknowledgement
   match — the cross-inport constraint the paper's Discussion section
   names as the hard case for fuzzing. Give it a longer budget to see
   the full handshake, e.g.:

     dune exec examples/tcp_protocol.exe -- 20 *)

open Cftcg_model
module Models = Cftcg_bench_models.Bench_models
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Ir_vm = Cftcg_ir.Ir_vm

let state_names =
  [| "CLOSED"; "LISTEN"; "SYN_SENT"; "SYN_RCVD"; "ESTABLISHED"; "FIN_WAIT_1"; "CLOSE_WAIT";
     "FIN_WAIT_2"; "TIME_WAIT"; "CLOSING"; "LAST_ACK" |]

let () =
  let entry = Option.get (Models.find "TCP") in
  let model = Lazy.force entry.Models.model in
  let gen = Cftcg.Pipeline.generate model in
  let prog = gen.Cftcg.Pipeline.program in
  let layout = gen.Cftcg.Pipeline.layout in

  let budget = if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 3.0 in
  (* protocol depth: how far from CLOSED each state is *)
  let depth_of_state = [| 0; 1; 1; 2; 4; 5; 5; 6; 7; 6; 7 |] in
  let vm = Ir_vm.compile ~optimize:false prog in
  let deepest_state data =
    Ir_vm.reset vm;
    let n = min (Layout.n_tuples layout data) 256 in
    let best = ref 0 in
    for tuple = 0 to n - 1 do
      Layout.load_tuple_vm layout data ~tuple vm;
      Ir_vm.step vm;
      let s = Value.to_int (Ir_vm.get_output vm 0) in
      if s >= 0 && s < Array.length depth_of_state && depth_of_state.(s) > depth_of_state.(!best)
      then best := s
    done;
    !best
  in
  let winner = ref None in
  let on_test_case (tc : Fuzzer.test_case) =
    let s = deepest_state tc.Fuzzer.tc_data in
    match !winner with
    | Some (_, best_s) when depth_of_state.(best_s) >= depth_of_state.(s) -> ()
    | _ -> winner := Some (tc, s)
  in
  let result =
    Fuzzer.run
      ~config:{ Fuzzer.default_config with Fuzzer.seed = 3L }
      ~on_test_case prog (Fuzzer.Time_budget budget)
  in
  Printf.printf "Fuzzed %d inputs (%d test cases emitted)\n"
    result.Fuzzer.stats.Fuzzer.executions
    (List.length result.Fuzzer.test_suite);
  match !winner with
  | None -> print_endline "no test cases emitted"
  | Some (tc, deepest) ->
    Printf.printf "Deepest state reached: %s (found at t=%.3fs); replaying:\n\n"
      state_names.(deepest) tc.Fuzzer.tc_time;
    if deepest < 4 then
      print_endline
        "(ESTABLISHED needs an exact ack match — the paper's cross-inport constraint; try a longer budget)";
    Printf.printf "%4s  %-28s %-12s %s\n" "step" "segment (flags seq ack cmd)" "state" "tx";
    Ir_vm.reset vm;
    let n = min (Layout.n_tuples layout tc.Fuzzer.tc_data) 40 in
    for tuple = 0 to n - 1 do
      let vals = Layout.load_tuple_values layout tc.Fuzzer.tc_data ~tuple in
      Layout.load_tuple_vm layout tc.Fuzzer.tc_data ~tuple vm;
      Ir_vm.step vm;
      let state = Value.to_int (Ir_vm.get_output vm 0) in
      let txf = Value.to_int (Ir_vm.get_output vm 1) in
      let flag_names v =
        let names = [ (1, "SYN"); (2, "ACK"); (4, "FIN"); (8, "RST") ] in
        let set = List.filter_map (fun (bit, n) -> if v land bit <> 0 then Some n else None) names in
        if set = [] then "-" else String.concat "|" set
      in
      Printf.printf "%4d  %-28s %-12s %s\n" tuple
        (Printf.sprintf "%s seq=%d ack=%d cmd=%d"
           (flag_names (Value.to_int vals.(0)))
           (Value.to_int vals.(1)) (Value.to_int vals.(2)) (Value.to_int vals.(3)))
        (let s = state in
         if s >= 0 && s < Array.length state_names then state_names.(s) else string_of_int s)
        (flag_names txf)
    done

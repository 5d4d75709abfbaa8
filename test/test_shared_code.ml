(* One prepared VM code per program: a standalone Fuzzer.run and a
   whole campaign each run the bytecode optimizer exactly once, and
   executors on different domains sharing one code behave exactly like
   executors that each compiled their own. *)

open Cftcg_ir
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Campaign = Cftcg_campaign.Campaign
module Models = Cftcg_bench_models.Bench_models
module Rng = Cftcg_util.Rng
module Trace = Cftcg_obs.Trace

let bench_prog name =
  let e = Option.get (Models.find name) in
  Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model)

(* Runs [f] with tracing on and returns its result together with the
   number of optimizer passes it made, counted as recorded
   [ir_opt.optimize_bytecode] spans. *)
let count_optimizer_runs f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    (fun () ->
      let r = f () in
      let n =
        List.length
          (List.filter
             (fun (e : Trace.event) -> e.Trace.ev_name = "ir_opt.optimize_bytecode")
             (Trace.events ()))
      in
      (r, n))

let test_fuzzer_run_optimizes_once () =
  let prog = bench_prog "RAC" in
  let (_ : Fuzzer.result), n =
    count_optimizer_runs (fun () ->
        Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 3L } prog
          (Fuzzer.Exec_budget 2000))
  in
  Alcotest.(check int) "one optimizer pass per run" 1 n

let test_campaign_optimizes_once () =
  let prog = bench_prog "TCP" in
  let config =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = 5L;
      total_execs = 20_000;
      execs_per_epoch = 312;
      plateau_epochs = 2;
      stop_on_full = false;
      hybrid = Some { Campaign.default_hybrid with Campaign.solver_execs = 2_000 }
    }
  in
  let r, n = count_optimizer_runs (fun () -> Campaign.run ~config prog) in
  Alcotest.(check bool)
    (Printf.sprintf "at least 4 epochs (ran %d)" (List.length r.Campaign.epochs))
    true
    (List.length r.Campaign.epochs >= 4);
  Alcotest.(check bool) "a solver phase ran" true (r.Campaign.solver_rounds > 0);
  Alcotest.(check int) "one optimizer pass per campaign" 1 n

(* Two domains fuzz at once from one prepared code and must find
   exactly what runs that each prepare their own code find. *)
let test_shared_code_fuzzer_parity () =
  List.iter
    (fun name ->
      let prog = bench_prog name in
      let code = Ir_vm.prepare prog in
      let cfg seed = { Fuzzer.default_config with Fuzzer.seed } in
      let runs = [ cfg 21L; cfg 22L ] in
      let budget = Fuzzer.Exec_budget 4000 in
      let shared =
        List.map (fun config -> Domain.spawn (fun () -> Fuzzer.run ~config ~code prog budget)) runs
        |> List.map Domain.join
      in
      let own = List.map (fun config -> Fuzzer.run ~config prog budget) runs in
      List.iteri
        (fun i (s, o) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s run %d: shared-code result byte-identical" name i)
            true (s = o))
        (List.combine shared own))
    [ "RAC"; "SolarPV" ]

(* Executor level: a per-input and an array executor over one shared
   code, driven from two domains at once, return results and coverage
   bitmaps identical to executors that prepare their own; the array
   executor's per-call sums are the per-input results summed. *)
let test_shared_code_executor_parity () =
  let prog = bench_prog "SolarPV" in
  let layout = Layout.of_program prog in
  let n_probes = max prog.Ir.n_probes 1 in
  let rng = Rng.create 77L in
  let inputs =
    Array.init 256 (fun _ ->
        Bytes.concat Bytes.empty
          (List.init (1 + Rng.int rng 12) (fun _ -> Layout.random_tuple_bytes layout rng)))
  in
  let k = 8 in
  let scalar ?code () =
    let g_total = Bytes.make n_probes '\000' in
    let run =
      Fuzzer.make_executor ?code ~backend:Fuzzer.Vm ~layout ~prog ~g_total ~max_tuples:256
        ~use_metric:true ()
    in
    let per_input = Array.map (fun data -> run ~fresh_cells:(ref []) data) inputs in
    (per_input, g_total)
  in
  let chunked ?code () =
    let g_total = Bytes.make n_probes '\000' in
    let run =
      Fuzzer.make_batch_executor ?code ~k ~layout ~prog ~g_total ~max_tuples:256
        ~use_metric:true ()
    in
    let per_chunk =
      Array.init (Array.length inputs / k) (fun c -> run (Array.sub inputs (c * k) k))
    in
    (per_chunk, g_total)
  in
  let code = Ir_vm.prepare prog in
  let ds = Domain.spawn (fun () -> scalar ~code ()) in
  let dc = Domain.spawn (fun () -> chunked ~code ()) in
  let shared_s = Domain.join ds and shared_c = Domain.join dc in
  Alcotest.(check bool) "per input: shared code = own compile" true (shared_s = scalar ());
  Alcotest.(check bool) "array: shared code = own compile" true (shared_c = chunked ());
  let per_input, g_s = shared_s and per_chunk, g_c = shared_c in
  Alcotest.(check bool) "same coverage bitmap" true (Bytes.equal g_s g_c);
  Array.iteri
    (fun c sums ->
      let add (m, f, i) (m', f', i') = (m + m', f + f', i + i') in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "chunk %d sums its inputs" c)
        (Array.fold_left add (0, 0, 0) (Array.sub per_input (c * k) k))
        sums)
    per_chunk;
  (match
     Fuzzer.make_batch_executor ~k ~layout ~prog ~g_total:(Bytes.make n_probes '\000')
       ~max_tuples:256 ~use_metric:true () (Array.sub inputs 0 (k + 1))
   with
  | _ -> Alcotest.fail "more inputs than k must be rejected"
  | exception Invalid_argument _ -> ());
  (* the code is still the code: a fresh instance over it matches a
     freshly compiled VM step for step *)
  let a = Ir_vm.of_code code and b = Ir_vm.compile prog in
  Ir_vm.reset a;
  Ir_vm.reset b;
  Array.iter
    (fun data ->
      for tuple = 0 to Layout.n_tuples layout data - 1 do
        Layout.load_tuple_vm layout data ~tuple a;
        Layout.load_tuple_vm layout data ~tuple b;
        Ir_vm.step a;
        Ir_vm.step b;
        Array.iteri
          (fun o _ ->
            Alcotest.(check bool) "same output" true (Ir_vm.get_output a o = Ir_vm.get_output b o))
          prog.Ir.outputs
      done)
    (Array.sub inputs 0 16)

let test_mismatched_code_rejected () =
  let code = Ir_vm.prepare (bench_prog "RAC") in
  match Fuzzer.run ~code (bench_prog "SolarPV") (Fuzzer.Exec_budget 10) with
  | _ -> Alcotest.fail "code prepared from another program must be rejected"
  | exception Invalid_argument _ -> ()

let suites =
  [ ( "fuzz.shared_code",
      [ Alcotest.test_case "Fuzzer.run optimizes once" `Quick test_fuzzer_run_optimizes_once;
        Alcotest.test_case "campaign optimizes once" `Slow test_campaign_optimizes_once;
        Alcotest.test_case "two domains, one code: runs" `Slow test_shared_code_fuzzer_parity;
        Alcotest.test_case "two domains, one code: executors" `Quick
          test_shared_code_executor_parity;
        Alcotest.test_case "mismatched code rejected" `Quick test_mismatched_code_rejected ] )
  ]

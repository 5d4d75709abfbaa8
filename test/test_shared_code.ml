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
module Log = Cftcg_obs.Log
module Flight = Cftcg_obs.Flight

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

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_fuzzer_run_optimizes_once () =
  let prog = bench_prog "RAC" in
  (* the batch-to-scalar fallback is logged; the flight ring keeps the
     line so the test can check this run really took that path *)
  Log.set_level (Some Log.Info);
  Flight.set_enabled true;
  Flight.clear ();
  let (_ : Fuzzer.result), n =
    Fun.protect
      ~finally:(fun () ->
        Log.set_level None;
        Flight.set_enabled false;
        Flight.clear ())
      (fun () ->
        let r, n =
          count_optimizer_runs (fun () ->
              Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 3L } prog
                (Fuzzer.Exec_budget 2000))
        in
        Alcotest.(check bool) "default batch width is batched" true
          (Fuzzer.default_config.Fuzzer.batch > 1);
        Alcotest.(check bool) "the run fell back to scalar" true
          (List.exists
             (fun (e : Flight.entry) -> contains "batch fallback to scalar" e.Flight.fl_msg)
             (Flight.recent ()));
        (r, n))
  in
  Alcotest.(check int) "one optimizer pass for the batched executor and its fallback" 1 n

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
  Alcotest.(check int) "one optimizer pass per campaign" 1 n;
  (* --no-opt: the replayer honours it too, so nothing optimizes *)
  let fuzzer = { config.Campaign.fuzzer with Fuzzer.optimize = false } in
  let _, n_off =
    count_optimizer_runs (fun () ->
        Campaign.run ~config:{ config with Campaign.fuzzer; max_epochs = 2 } prog)
  in
  Alcotest.(check int) "no optimizer pass with optimize off" 0 n_off

(* Two domains fuzz at once from one prepared code — one through the
   batched executor (and its scalar fallback), one scalar — and must
   find exactly what runs that each prepare their own code find. *)
let test_shared_code_fuzzer_parity () =
  List.iter
    (fun name ->
      let prog = bench_prog name in
      let code = Ir_vm.prepare prog in
      let cfg seed batch = { Fuzzer.default_config with Fuzzer.seed; batch } in
      let runs = [ cfg 21L 8; cfg 22L 1 ] in
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

(* Executor level: scalar and batched instances over one shared code,
   driven from two domains at once, return per-input results and
   coverage bitmaps identical to executors that prepare their own. *)
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
  let batched ?code () =
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
  let db = Domain.spawn (fun () -> batched ~code ()) in
  let shared_s = Domain.join ds and shared_b = Domain.join db in
  Alcotest.(check bool) "scalar: shared code = own compile" true (shared_s = scalar ());
  Alcotest.(check bool) "batched: shared code = own compile" true (shared_b = batched ());
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

(* the batched VM has no branch-record or distance arms *)
let test_branch_code_not_batched () =
  let code = Ir_vm.prepare ~optimize:false ~branches:true (bench_prog "TCP") in
  match Ir_vm_batch.of_code ~k:4 code with
  | _ -> Alcotest.fail "branch-recording code must be refused by the batched VM"
  | exception Invalid_argument _ -> ()

let suites =
  [ ( "fuzz.shared_code",
      [ Alcotest.test_case "Fuzzer.run optimizes once" `Quick test_fuzzer_run_optimizes_once;
        Alcotest.test_case "campaign optimizes once" `Slow test_campaign_optimizes_once;
        Alcotest.test_case "two domains, one code: runs" `Slow test_shared_code_fuzzer_parity;
        Alcotest.test_case "two domains, one code: executors" `Quick
          test_shared_code_executor_parity;
        Alcotest.test_case "mismatched code rejected" `Quick test_mismatched_code_rejected;
        Alcotest.test_case "branch code not batched" `Quick test_branch_code_not_batched ] )
  ]

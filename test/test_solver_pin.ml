(* Solver transcript pins: digests of exec-budget Symexec runs and of a
   jobs-2 hybrid campaign, first recorded when the solver ran on
   closure-compiled code and unchanged since it moved to the VM.
   Any change to the solver's execution backend must leave every byte
   of these transcripts alone — suite inputs and timestamps,
   execution counts, solved and covered counts. *)

open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Symexec = Cftcg_symexec.Symexec
module Campaign = Cftcg_campaign.Campaign
module Fuzzer = Cftcg_fuzz.Fuzzer
module Models = Cftcg_bench_models.Bench_models

let bench_prog name =
  let e = Option.get (Models.find name) in
  Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model)

(* [dune runtest] runs from the build's test directory, [dune exec]
   from the repository root *)
let example_prog file =
  let path =
    List.find Sys.file_exists
      [ Filename.concat "examples" file; Filename.concat "../examples" file ]
  in
  Codegen.lower ~mode:Codegen.Full (Slx.load_file path)

let add_bytes buf b =
  Buffer.add_string buf (Digest.to_hex (Digest.bytes b));
  Buffer.add_char buf ';'

let symexec_digest (r : Symexec.result) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (tc : Symexec.test_case) ->
      add_bytes buf tc.Symexec.data;
      Buffer.add_string buf (Printf.sprintf "%h;" tc.Symexec.time))
    r.Symexec.suite;
  Buffer.add_string buf
    (Printf.sprintf "execs=%d total=%d solved=%d covered=%d" r.Symexec.executions
       r.Symexec.targets_total r.Symexec.targets_solved r.Symexec.probes_covered);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let stop_reason_name = function
  | None -> "none"
  | Some Campaign.Full_coverage -> "full_coverage"
  | Some Campaign.Plateau -> "plateau"
  | Some Campaign.Dead_workers -> "dead_workers"
  | Some Campaign.Budget -> "budget"
  | Some Campaign.Epoch_cap -> "epoch_cap"
  | Some Campaign.Deadline -> "deadline"

let campaign_digest (r : Campaign.result) =
  let buf = Buffer.create 256 in
  List.iter (add_bytes buf) r.Campaign.suite;
  List.iter
    (fun (f : Fuzzer.failure) ->
      add_bytes buf f.Fuzzer.f_data;
      Buffer.add_string buf (Printf.sprintf "%h;%s;" f.Fuzzer.f_time f.Fuzzer.f_message))
    r.Campaign.failures;
  List.iter
    (fun (e : Campaign.epoch_stat) ->
      Buffer.add_string buf
        (Printf.sprintf "e%d:%d:%d:%d;" e.Campaign.ep_epoch e.Campaign.ep_executions
           e.Campaign.ep_probes_covered e.Campaign.ep_corpus_size))
    r.Campaign.epochs;
  Buffer.add_string buf
    (Printf.sprintf
       "covered=%d total=%d execs=%d resumed=%b plateaued=%b crashes=%d rounds=%d solved=%d \
        solver_execs=%d stop=%s"
       r.Campaign.probes_covered r.Campaign.probes_total r.Campaign.executions r.Campaign.resumed
       (r.Campaign.stop_reason = Some Campaign.Plateau) r.Campaign.worker_crashes r.Campaign.solver_rounds
       r.Campaign.solver_solved r.Campaign.solver_executions
       (stop_reason_name r.Campaign.stop_reason));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (name, program, config, exec budget, expected digest). The SolarPV,
   AFC and EVCS rows (float-heavy models) and the bounded-unrolling TCP
   row were recorded before the solver evaluated candidates
   incrementally, and must survive it byte for byte. *)
let with_seed seed = { Symexec.default_config with Symexec.seed }

let symexec_pins =
  [ ("TCP", (fun () -> bench_prog "TCP"), with_seed 3L, 20_000, "7634925f58e8acdad195517bdde2bcf2");
    ("RAC", (fun () -> bench_prog "RAC"), with_seed 4L, 20_000, "b9db85da63f22e46936ecdccb3f4caa4");
    ( "rolling_code",
      (fun () -> example_prog "rolling_code.slx.xml"),
      with_seed 5L,
      20_000,
      "a20c986322c099daca9d27f040ebb0a3" );
    ("SolarPV", (fun () -> bench_prog "SolarPV"), with_seed 6L, 20_000, "4680fe749eb11758a983ad0176545aee");
    ("AFC", (fun () -> bench_prog "AFC"), with_seed 7L, 20_000, "8cff3efb0488a08de1c4d3fcd2e9050b");
    ("EVCS", (fun () -> bench_prog "EVCS"), with_seed 8L, 20_000, "d370ce7e899bbe81b6c85417ece2bad4");
    ( "TCP bounds 1-8",
      (fun () -> bench_prog "TCP"),
      { (with_seed 9L) with Symexec.unroll_bounds = [ 1; 2; 4; 8 ] },
      20_000,
      "2840b6016949c9687d0efc84063ae3f4" ) ]

let test_symexec_pins () =
  List.iter
    (fun (name, prog, config, budget, expected) ->
      let r = Symexec.run ~config (prog ()) (Symexec.Exec_budget budget) in
      Alcotest.(check string) (name ^ " transcript digest") expected (symexec_digest r))
    symexec_pins

let test_hybrid_campaign_pin () =
  let config =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = 5L;
      total_execs = 20_000;
      execs_per_epoch = 312;
      plateau_epochs = 2;
      stop_on_full = false;
      hybrid = Some { Campaign.default_hybrid with Campaign.solver_execs = 15_000 }
    }
  in
  let r = Campaign.run ~config (bench_prog "TCP") in
  Alcotest.(check bool) "a solver phase ran" true (r.Campaign.solver_rounds > 0);
  Alcotest.(check string) "TCP jobs-2 hybrid campaign digest"
    "8777a73e38659a4cf1e5a6a66d7cbf49" (campaign_digest r)

(* The jobs-1 path: one solver shard on the coordinator, recorded
   before the phase was split across a campaign's live jobs. A jobs-1
   campaign must keep every byte of it. *)
let test_hybrid_campaign_jobs1_pin () =
  let config =
    { Campaign.default_config with
      Campaign.jobs = 1;
      seed = 7L;
      total_execs = 16_000;
      execs_per_epoch = 500;
      plateau_epochs = 2;
      stop_on_full = false;
      hybrid = Some { Campaign.default_hybrid with Campaign.solver_execs = 6_000 }
    }
  in
  let r = Campaign.run ~config (bench_prog "TCP") in
  Alcotest.(check bool) "a solver phase ran" true (r.Campaign.solver_rounds > 0);
  Alcotest.(check string) "TCP jobs-1 hybrid campaign digest"
    "2549401ba62328e63370f504de78fe6d" (campaign_digest r)

let suites =
  [ ( "symexec.pin",
      [ Alcotest.test_case "exec-budget transcripts" `Slow test_symexec_pins;
        Alcotest.test_case "hybrid campaign transcript" `Slow test_hybrid_campaign_pin;
        Alcotest.test_case "jobs-1 hybrid campaign transcript" `Slow
          test_hybrid_campaign_jobs1_pin ] ) ]

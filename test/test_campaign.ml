(* Tests for the parallel ensemble campaign orchestrator: corpus
   store persistence/resume, telemetry sinks, multi-worker scaling vs
   a single worker, exec-budget determinism, and the hardened CSV
   importer. *)

open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Campaign = Cftcg_campaign.Campaign
module Corpus_store = Cftcg_campaign.Corpus_store
module Telemetry = Cftcg_campaign.Telemetry
module Testcase = Cftcg_testcase.Testcase
module Models = Cftcg_bench_models.Bench_models

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  rm_rf dir;
  dir

let solar_pv () =
  let e = Option.get (Models.find "SolarPV") in
  Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model)

(* --- Corpus_store --- *)

let test_store_add_dedup () =
  let dir = fresh_dir "cftcg_store_add" in
  let s = Corpus_store.open_ dir in
  Alcotest.(check int) "empty" 0 (Corpus_store.size s);
  let a = Bytes.of_string "aaaa" and b = Bytes.of_string "bb" in
  (match Corpus_store.add s ~fingerprint:"f1" ~metric:10 a with
  | `Added -> ()
  | _ -> Alcotest.fail "first add");
  (* same fingerprint, worse metric: the old representative stays *)
  (match Corpus_store.add s ~fingerprint:"f1" ~metric:5 b with
  | `Kept -> ()
  | _ -> Alcotest.fail "worse metric must be kept out");
  Alcotest.(check (list bytes)) "old entry" [ a ] (Corpus_store.entries s);
  (* same fingerprint, better metric: replaced *)
  (match Corpus_store.add s ~fingerprint:"f1" ~metric:20 b with
  | `Replaced -> ()
  | _ -> Alcotest.fail "better metric must replace");
  ignore (Corpus_store.add s ~fingerprint:"f0" ~metric:1 a);
  Alcotest.(check int) "two fingerprints" 2 (Corpus_store.size s);
  Alcotest.(check (list string)) "sorted" [ "f0"; "f1" ] (Corpus_store.fingerprints s);
  Alcotest.(check (list bytes)) "entries in fp order" [ a; b ] (Corpus_store.entries s);
  rm_rf dir

let test_store_manifest_roundtrip () =
  let dir = fresh_dir "cftcg_store_manifest" in
  let s = Corpus_store.open_ dir in
  ignore (Corpus_store.add s ~fingerprint:"ff01" ~metric:7 (Bytes.of_string "x"));
  let m =
    { Corpus_store.m_seed = -42L; m_jobs = 4; m_epoch = 3; m_executions = 123456;
      m_probes_total = 16; m_coverage = Bytes.of_string "\001\000\001" }
  in
  Corpus_store.save_manifest s m;
  let s2 = Corpus_store.open_ dir in
  (match Corpus_store.load_manifest s2 with
  | Some got ->
    Alcotest.(check int64) "seed" m.Corpus_store.m_seed got.Corpus_store.m_seed;
    Alcotest.(check int) "jobs" 4 got.Corpus_store.m_jobs;
    Alcotest.(check int) "epoch" 3 got.Corpus_store.m_epoch;
    Alcotest.(check int) "executions" 123456 got.Corpus_store.m_executions;
    Alcotest.(check int) "probes_total" 16 got.Corpus_store.m_probes_total;
    Alcotest.(check bytes) "coverage" m.Corpus_store.m_coverage got.Corpus_store.m_coverage
  | None -> Alcotest.fail "manifest not reloaded");
  (* the entry index (metric) survives the round-trip *)
  (match Corpus_store.add s2 ~fingerprint:"ff01" ~metric:6 (Bytes.of_string "y") with
  | `Kept -> ()
  | _ -> Alcotest.fail "metric lost across reopen");
  rm_rf dir

let test_store_recovers_unmanifested_entries () =
  (* entries written after the last manifest save (killed campaign)
     are still found on reopen *)
  let dir = fresh_dir "cftcg_store_recover" in
  let s = Corpus_store.open_ dir in
  ignore (Corpus_store.add s ~fingerprint:"abcd" ~metric:9 (Bytes.of_string "data"));
  let s2 = Corpus_store.open_ dir in
  Alcotest.(check int) "recovered" 1 (Corpus_store.size s2);
  Alcotest.(check bool) "mem" true (Corpus_store.mem s2 "abcd");
  rm_rf dir

let test_store_merge () =
  let da = fresh_dir "cftcg_store_merge_a" and db = fresh_dir "cftcg_store_merge_b" in
  let a = Corpus_store.open_ da and b = Corpus_store.open_ db in
  ignore (Corpus_store.add a ~fingerprint:"f1" ~metric:1 (Bytes.of_string "a1"));
  ignore (Corpus_store.add b ~fingerprint:"f1" ~metric:9 (Bytes.of_string "b1"));
  ignore (Corpus_store.add b ~fingerprint:"f2" ~metric:2 (Bytes.of_string "b2"));
  (* persist b's metric index: merge reopens [from] dirs from disk, and
     unmanifested entries are recovered at metric 0 *)
  Corpus_store.save_manifest b
    { Corpus_store.m_seed = 0L; m_jobs = 1; m_epoch = 0; m_executions = 0;
      m_probes_total = 0; m_coverage = Bytes.empty };
  let changed = Corpus_store.merge a ~from:[ db ] in
  Alcotest.(check int) "f1 replaced + f2 added" 2 changed;
  Alcotest.(check (list bytes)) "merged entries"
    [ Bytes.of_string "b1"; Bytes.of_string "b2" ]
    (Corpus_store.entries a);
  rm_rf da;
  rm_rf db

(* --- Telemetry --- *)

let some_events =
  [ Telemetry.Exec_batch { worker = 0; epoch = 0; executions = 512; iterations = 900; probes_covered = 10 };
    Telemetry.New_probe { worker = 1; epoch = 0; probes = 3; executions = 17 };
    Telemetry.Corpus_sync { epoch = 0; candidates = 12; kept = 7; probes_covered = 13 };
    Telemetry.Epoch_end { epoch = 0; executions = 2048; probes_covered = 13; probes_total = 20; corpus_size = 7 };
    Telemetry.Plateau { epoch = 4; stalled_epochs = 3 };
    Telemetry.Failure { worker = 2; epoch = 1; message = "overflow \"u\"\n" } ]

let test_telemetry_ring () =
  let sink, contents = Telemetry.ring ~capacity:4 () in
  List.iter sink.Telemetry.emit some_events;
  sink.Telemetry.close ();
  let got = contents () in
  (* capacity 4: the two oldest of the six events are overwritten *)
  Alcotest.(check int) "ring keeps latest" 4 (List.length got);
  Alcotest.(check bool) "oldest first" true
    (List.nth got 0 = Telemetry.Corpus_sync { epoch = 0; candidates = 12; kept = 7; probes_covered = 13 })

let test_telemetry_json () =
  let js = List.map (Telemetry.to_json ?seq:None) some_events in
  List.iter
    (fun j ->
      Alcotest.(check bool) ("object: " ^ j) true
        (String.length j > 1 && j.[0] = '{' && j.[String.length j - 1] = '}');
      Alcotest.(check bool) ("typed: " ^ j) true (contains "\"type\":" j))
    js;
  (* escaping: the failure message has a quote and a newline *)
  let failure_json = List.nth js 5 in
  Alcotest.(check bool) "escapes quotes" true (contains "overflow \\\"u\\\"\\n" failure_json);
  Alcotest.(check bool) "no raw newline" true (not (String.contains failure_json '\n'))

(* The README's JSONL schema sentence against the type: one value of
   every constructor, checked by a match without a wildcard, so a new
   constructor does not compile until it is listed here. *)
let every_event =
  [ Telemetry.Exec_batch { worker = 0; epoch = 0; executions = 1; iterations = 1; probes_covered = 1 };
    Telemetry.New_probe { worker = 0; epoch = 0; probes = 1; executions = 1 };
    Telemetry.Corpus_sync { epoch = 0; candidates = 1; kept = 1; probes_covered = 1 };
    Telemetry.Epoch_end { epoch = 0; executions = 1; probes_covered = 1; probes_total = 2; corpus_size = 1 };
    Telemetry.Plateau { epoch = 0; stalled_epochs = 1 };
    Telemetry.Solver_phase { epoch = 0; round = 0; targets = 1; stalled_epochs = 1; budget = 1; shards = 1 };
    Telemetry.Solver_done
      { epoch = 0; round = 0; targets = 1; solved = 0; executions = 1; probes_covered = 1;
        slowest_shard_executions = 1 };
    Telemetry.Dead_workers { epoch = 0; dead_epochs = 2 };
    Telemetry.Failure { worker = 0; epoch = 0; message = "m" };
    Telemetry.Worker_crash { worker = 0; epoch = 0; message = "m" };
    Telemetry.Salvage { message = "m" } ]

let constructor_index = function
  | Telemetry.Exec_batch _ -> 0
  | Telemetry.New_probe _ -> 1
  | Telemetry.Corpus_sync _ -> 2
  | Telemetry.Epoch_end _ -> 3
  | Telemetry.Plateau _ -> 4
  | Telemetry.Solver_phase _ -> 5
  | Telemetry.Solver_done _ -> 6
  | Telemetry.Dead_workers _ -> 7
  | Telemetry.Failure _ -> 8
  | Telemetry.Worker_crash _ -> 9
  | Telemetry.Salvage _ -> 10

let test_telemetry_schema_doc () =
  Alcotest.(check (list int)) "one value per constructor" (List.init 11 Fun.id)
    (List.sort_uniq compare (List.map constructor_index every_event));
  let readme =
    let ic = open_in_bin (List.find Sys.file_exists [ "README.md"; "../README.md" ]) in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))
  in
  let find_from i needle =
    let nl = String.length needle in
    let rec go i = if String.sub readme i nl = needle then i else go (i + 1) in
    go i
  in
  let start = find_from 0 "JSONL schema:" in
  let sentence = String.sub readme start (find_from start ", e.g." - start) in
  List.iter
    (fun e ->
      let ty = Cftcg_serve.Wire.(get_string "type" (of_string (Telemetry.to_json e))) in
      Alcotest.(check bool) (ty ^ " in the README schema") true (contains ("`" ^ ty ^ "`") sentence))
    every_event

let test_telemetry_jsonl_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "cftcg_test_events.jsonl" in
  let sink = Telemetry.jsonl path in
  List.iter sink.Telemetry.emit some_events;
  sink.Telemetry.close ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per event" (List.length some_events) (List.length lines);
  List.iteri
    (fun i line ->
      Alcotest.(check bool) "seq stamped" true (contains (Printf.sprintf "\"seq\":%d" i) line))
    lines;
  Sys.remove path

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let test_telemetry_jsonl_append () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "cftcg_test_append.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (* first run: 6 events, seq 0..5 *)
  let sink = Telemetry.jsonl path in
  List.iter sink.Telemetry.emit some_events;
  sink.Telemetry.close ();
  (* resumed run appends and continues the seq counter *)
  let sink = Telemetry.jsonl ~append:true path in
  List.iter sink.Telemetry.emit some_events;
  sink.Telemetry.close ();
  let lines = read_lines path in
  Alcotest.(check int) "appended" (2 * List.length some_events) (List.length lines);
  List.iteri
    (fun i line ->
      Alcotest.(check bool)
        (Printf.sprintf "seq %d continues" i)
        true
        (contains (Printf.sprintf "\"seq\":%d" i) line))
    lines;
  (* fresh (non-append) run truncates back to one event set *)
  let sink = Telemetry.jsonl path in
  List.iter sink.Telemetry.emit some_events;
  sink.Telemetry.close ();
  let lines = read_lines path in
  Alcotest.(check int) "truncated" (List.length some_events) (List.length lines);
  Alcotest.(check bool) "seq restarts" true (contains "\"seq\":0" (List.nth lines 0));
  (* append to a path that does not exist yet: starts at seq 0 *)
  Sys.remove path;
  let sink = Telemetry.jsonl ~append:true path in
  sink.Telemetry.emit (List.hd some_events);
  sink.Telemetry.close ();
  Alcotest.(check bool) "append creates" true (contains "\"seq\":0" (List.hd (read_lines path)));
  Sys.remove path

let test_telemetry_jsonl_durable_close () =
  (* close flushes and fsyncs: every emitted line must be readable
     from a fresh descriptor the instant close returns, with no
     buffered tail *)
  let path = Filename.concat (Filename.get_temp_dir_name ()) "cftcg_test_durable.jsonl" in
  let sink = Telemetry.jsonl path in
  for _ = 1 to 500 do
    List.iter sink.Telemetry.emit some_events
  done;
  sink.Telemetry.close ();
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  Unix.close fd;
  let lines = read_lines path in
  Alcotest.(check int) "all lines on disk" (500 * List.length some_events) (List.length lines);
  Alcotest.(check bool) "last line complete" true
    (contains (Printf.sprintf "\"seq\":%d" ((500 * List.length some_events) - 1))
       (List.nth lines ((500 * List.length some_events) - 1)));
  Alcotest.(check bool) "nothing buffered" true (size > 0);
  Sys.remove path

let test_telemetry_close_idempotent () =
  (* closing any constructed sink twice must be a no-op, not a crash
     (jsonl's second close would otherwise close_out a closed channel) *)
  let path = Filename.concat (Filename.get_temp_dir_name ()) "cftcg_test_close.jsonl" in
  let sink = Telemetry.jsonl path in
  sink.Telemetry.emit (List.hd some_events);
  sink.Telemetry.close ();
  sink.Telemetry.close ();
  Sys.remove path;
  let ring, _ = Telemetry.ring () in
  ring.Telemetry.close ();
  ring.Telemetry.close ();
  let m = Telemetry.multi [ Telemetry.null ] in
  m.Telemetry.close ();
  m.Telemetry.close ()

let test_telemetry_multi_close_exception_safe () =
  let closed = Array.make 3 false in
  let plain ix = { Telemetry.emit = (fun _ -> ()); close = (fun () -> closed.(ix) <- true) } in
  let failing ix =
    { Telemetry.emit = (fun _ -> ());
      close =
        (fun () ->
          closed.(ix) <- true;
          failwith "sink close failed")
    }
  in
  let m = Telemetry.multi [ plain 0; failing 1; plain 2 ] in
  (match m.Telemetry.close () with
  | exception Failure msg -> Alcotest.(check string) "first error re-raised" "sink close failed" msg
  | () -> Alcotest.fail "close must re-raise the sink failure");
  Alcotest.(check (array bool)) "every sink closed" [| true; true; true |] closed;
  (* idempotent even after a failing close: nothing runs again *)
  Array.fill closed 0 3 false;
  m.Telemetry.close ();
  Alcotest.(check (array bool)) "second close is a no-op" [| false; false; false |] closed

(* snapshot of the progress renderer's terminal protocol: heartbeats
   overwrite one line (\r, no newline), epoch ends and failures commit
   it with a newline, and close commits a dangling heartbeat line *)
let progress_output events =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "cftcg_test_progress.txt" in
  let oc = open_out path in
  let sink = Telemetry.progress oc in
  List.iter sink.Telemetry.emit events;
  sink.Telemetry.close ();
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let pad78 s = Printf.sprintf "\r%-78s" s

let test_telemetry_progress_snapshot () =
  let hb n =
    Telemetry.Exec_batch { worker = 1; epoch = 0; executions = n; iterations = 2 * n; probes_covered = 7 }
  in
  (* two heartbeats: the second overwrites the first, close commits *)
  Alcotest.(check string) "heartbeat overwrite"
    (pad78 "  worker 1: 512 execs, 7 probes covered"
    ^ pad78 "  worker 1: 1024 execs, 7 probes covered"
    ^ "\n")
    (progress_output [ hb 512; hb 1024 ]);
  (* epoch end commits the line: no dangling line for close to finish *)
  Alcotest.(check string) "epoch commit"
    (pad78 "  worker 1: 512 execs, 7 probes covered"
    ^ pad78 "  epoch 3: 4096 execs, 9/20 probes, corpus 5"
    ^ "\n")
    (progress_output
       [ hb 512;
         Telemetry.Epoch_end
           { epoch = 3; executions = 4096; probes_covered = 9; probes_total = 20; corpus_size = 5 }
       ]);
  (* a failure commits its own line even mid-heartbeat *)
  Alcotest.(check string) "failure commit"
    (pad78 "  worker 1: 512 execs, 7 probes covered"
    ^ pad78 "  FAILURE (worker 2): assert blew up"
    ^ "\n"
    ^ pad78 "  worker 1: 1024 execs, 7 probes covered"
    ^ "\n")
    (progress_output
       [ hb 512;
         Telemetry.Failure { worker = 2; epoch = 0; message = "assert blew up" };
         hb 1024
       ]);
  (* silent events leave no output at all *)
  Alcotest.(check string) "silent events" ""
    (progress_output
       [ Telemetry.New_probe { worker = 0; epoch = 0; probes = 1; executions = 3 };
         Telemetry.Corpus_sync { epoch = 0; candidates = 1; kept = 1; probes_covered = 1 }
       ])

(* --- Fuzzer determinism under Exec_budget (virtual clock) --- *)

let test_exec_budget_deterministic () =
  let prog = solar_pv () in
  let run () =
    Fuzzer.run ~config:{ Fuzzer.default_config with Fuzzer.seed = 21L } prog
      (Fuzzer.Exec_budget 2000)
  in
  let r1 = run () and r2 = run () in
  (* byte-identical results INCLUDING timestamps and stats: exec-budget
     runs read the virtual clock (execution index), never wall time *)
  Alcotest.(check bool) "identical results incl. stats" true (r1 = r2);
  Alcotest.(check (float 0.0)) "elapsed is the virtual clock"
    (float_of_int r1.Fuzzer.stats.Fuzzer.executions)
    r1.Fuzzer.stats.Fuzzer.elapsed;
  List.iter
    (fun (tc : Fuzzer.test_case) ->
      Alcotest.(check bool) "timestamps are execution indices" true
        (Float.is_integer tc.Fuzzer.tc_time && tc.Fuzzer.tc_time >= 0.0))
    r1.Fuzzer.test_suite

(* --- Campaign --- *)

let test_campaign_rejects_bad_config () =
  let prog = solar_pv () in
  (match Campaign.run ~config:{ Campaign.default_config with Campaign.jobs = 0 } prog with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted jobs = 0");
  let b = Build.create "NoInputs" in
  Build.outport b "y" (Build.const_f b 1.0);
  let closed = Codegen.lower (Build.finish b) in
  match Campaign.run closed with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a model without inports"

(* Settings under which no campaign can make progress are refused at
   start: an epoch of 0 executions would otherwise spin through empty
   epochs until the plateau counter ran out. *)
let test_campaign_rejects_unspendable_config () =
  let prog = solar_pv () in
  let hy f = Some (f Campaign.default_hybrid) in
  let bad =
    [ ("execs_per_epoch must be >= 1", { Campaign.default_config with Campaign.execs_per_epoch = 0 });
      ( "solver_execs must be >= 0",
        { Campaign.default_config with
          Campaign.hybrid = hy (fun h -> { h with Campaign.solver_execs = -1 }) } );
      ( "solver_rounds must be >= 0",
        { Campaign.default_config with
          Campaign.hybrid = hy (fun h -> { h with Campaign.solver_rounds = -1 }) } );
      ( "solver unroll bounds must be >= 1",
        let bounds (s : Cftcg_symexec.Symexec.config) = { s with unroll_bounds = [ 1; 0 ] } in
        { Campaign.default_config with
          Campaign.hybrid = hy (fun h -> { h with Campaign.solver = bounds h.Campaign.solver }) } ) ]
  in
  List.iter
    (fun (reason, config) ->
      Alcotest.(check bool) ("validate: " ^ reason) true (Campaign.validate config = Error reason);
      Alcotest.check_raises reason (Invalid_argument ("Campaign.start: " ^ reason)) (fun () ->
          ignore (Campaign.start ~config prog)))
    bad;
  Alcotest.(check bool) "the default hybrid campaign is valid" true
    (Campaign.validate { Campaign.default_config with Campaign.hybrid = hy Fun.id } = Ok ())

let test_campaign_deterministic () =
  let prog = solar_pv () in
  let config =
    { Campaign.default_config with
      Campaign.jobs = 3;
      seed = 5L;
      total_execs = 900;
      execs_per_epoch = 100;
      stop_on_full = false;
      plateau_epochs = max_int
    }
  in
  let r1 = Campaign.run ~config prog and r2 = Campaign.run ~config prog in
  Alcotest.(check int) "same coverage" r1.Campaign.probes_covered r2.Campaign.probes_covered;
  Alcotest.(check int) "same executions" r1.Campaign.executions r2.Campaign.executions;
  Alcotest.(check (list bytes)) "same merged corpus" r1.Campaign.suite r2.Campaign.suite;
  Alcotest.(check bool) "same history" true (r1.Campaign.epochs = r2.Campaign.epochs)

(* Acceptance: a 4-worker ensemble with the same total execution
   budget reaches at least the coverage of a single worker. *)
let test_campaign_parallel_vs_single () =
  let prog = solar_pv () in
  let run jobs =
    Campaign.run
      ~config:
        { Campaign.default_config with
          Campaign.jobs;
          seed = 3L;
          total_execs = 12_000;
          execs_per_epoch = 1_000
        }
      prog
  in
  let single = run 1 and ensemble = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "ensemble coverage (%d) >= single (%d)" ensemble.Campaign.probes_covered
       single.Campaign.probes_covered)
    true
    (ensemble.Campaign.probes_covered >= single.Campaign.probes_covered);
  Alcotest.(check bool) "ensemble merged corpus nonempty" true (ensemble.Campaign.suite <> []);
  (* epoch history is cumulative and monotone *)
  let rec monotone = function
    | (a : Campaign.epoch_stat) :: (b :: _ as rest) ->
      a.Campaign.ep_probes_covered <= b.Campaign.ep_probes_covered
      && a.Campaign.ep_executions < b.Campaign.ep_executions
      && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone history" true (monotone ensemble.Campaign.epochs)

(* Acceptance: kill/resume. A campaign interrupted after one epoch
   persists its corpus + manifest; a resumed campaign starts from the
   persisted state and never loses coverage. *)
let test_campaign_kill_and_resume () =
  let prog = solar_pv () in
  let dir = fresh_dir "cftcg_campaign_resume" in
  let base =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = 9L;
      execs_per_epoch = 100;
      corpus_dir = Some dir
    }
  in
  (* "kill" after exactly one epoch by capping max_epochs *)
  let interrupted =
    Campaign.run ~config:{ base with Campaign.total_execs = 10_000; max_epochs = 1 } prog
  in
  let cov_at_interrupt = interrupted.Campaign.probes_covered in
  Alcotest.(check bool) "interrupted mid-campaign" true
    (cov_at_interrupt > 0 && cov_at_interrupt < interrupted.Campaign.probes_total);
  let store = Corpus_store.open_ dir in
  (match Corpus_store.load_manifest store with
  | Some m ->
    Alcotest.(check int) "manifest epoch" 1 m.Corpus_store.m_epoch;
    Alcotest.(check int) "manifest executions" interrupted.Campaign.executions
      m.Corpus_store.m_executions
  | None -> Alcotest.fail "no manifest persisted");
  Alcotest.(check bool) "entries persisted" true (Corpus_store.size store > 0);
  (* resume with the remaining budget *)
  let resumed =
    Campaign.run ~config:{ base with Campaign.total_execs = 8_000; resume = true } prog
  in
  Alcotest.(check bool) "flagged as resumed" true resumed.Campaign.resumed;
  Alcotest.(check bool)
    (Printf.sprintf "coverage after resume (%d) >= at interrupt (%d)"
       resumed.Campaign.probes_covered cov_at_interrupt)
    true
    (resumed.Campaign.probes_covered >= cov_at_interrupt);
  Alcotest.(check bool) "executions accumulate" true
    (resumed.Campaign.executions > interrupted.Campaign.executions);
  (match resumed.Campaign.epochs with
  | first :: _ ->
    Alcotest.(check int) "epoch numbering continues" 1 first.Campaign.ep_epoch
  | [] -> Alcotest.fail "resumed campaign ran no epochs");
  (* resume against a different program is refused *)
  let other = Codegen.lower (Fixtures.arith_model ()) in
  (match
     Campaign.run ~config:{ base with Campaign.resume = true } other
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resumed a corpus recorded for a different program");
  rm_rf dir

let test_campaign_telemetry_stream () =
  let prog = solar_pv () in
  let sink, contents = Telemetry.ring () in
  let r =
    Campaign.run
      ~config:
        { Campaign.default_config with
          Campaign.jobs = 2;
          seed = 4L;
          total_execs = 3_000;
          execs_per_epoch = 500;
          sink
        }
      prog
  in
  let events = contents () in
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "one epoch_end per epoch"
    (List.length r.Campaign.epochs)
    (count (function Telemetry.Epoch_end _ -> true | _ -> false));
  Alcotest.(check int) "one corpus_sync per epoch"
    (List.length r.Campaign.epochs)
    (count (function Telemetry.Corpus_sync _ -> true | _ -> false));
  Alcotest.(check bool) "new probes reported" true
    (count (function Telemetry.New_probe _ -> true | _ -> false) > 0);
  (* the last epoch_end agrees with the result *)
  let last_end =
    List.fold_left
      (fun acc e -> match e with Telemetry.Epoch_end _ -> Some e | _ -> acc)
      None events
  in
  match last_end with
  | Some (Telemetry.Epoch_end { probes_covered; executions; _ }) ->
    Alcotest.(check int) "final coverage reported" r.Campaign.probes_covered probes_covered;
    Alcotest.(check int) "final executions reported" r.Campaign.executions executions
  | _ -> Alcotest.fail "no epoch_end event"

(* --- hardened CSV import --- *)

let test_csv_rejects_non_finite () =
  let layout = Layout.of_inports [| ("i", Dtype.Int8); ("f", Dtype.Float64) |] in
  List.iter
    (fun (csv, needle) ->
      match Testcase.of_csv layout csv with
      | exception Testcase.Parse_error msg ->
        Alcotest.(check bool) (Printf.sprintf "%S in %S" needle msg) true (contains needle msg)
      | _ -> Alcotest.fail ("accepted " ^ csv))
    [ ("step,i,f\n0,1,nan", "non-finite");
      ("step,i,f\n0,1,inf", "non-finite");
      ("step,i,f\n0,1,-infinity", "non-finite");
      (* an integer field fed a float-formatted NaN must not coerce *)
      ("step,i,f\n0,nan,1.0", "non-finite") ]

let test_csv_rejects_truncated_row () =
  let layout = Layout.of_inports [| ("i", Dtype.Int8); ("f", Dtype.Float64) |] in
  match Testcase.of_csv layout "step,i,f\n0,1,2.0\n1,1" with
  | exception Testcase.Parse_error msg ->
    Alcotest.(check bool) ("truncated in " ^ msg) true (contains "truncated" msg)
  | _ -> Alcotest.fail "accepted a truncated row"

let suites =
  [ ( "campaign.corpus_store",
      [ Alcotest.test_case "add dedup by fingerprint" `Quick test_store_add_dedup;
        Alcotest.test_case "manifest roundtrip" `Quick test_store_manifest_roundtrip;
        Alcotest.test_case "recovers unmanifested entries" `Quick
          test_store_recovers_unmanifested_entries;
        Alcotest.test_case "merge directories" `Quick test_store_merge ] );
    ( "campaign.telemetry",
      [ Alcotest.test_case "ring buffer" `Quick test_telemetry_ring;
        Alcotest.test_case "json encoding" `Quick test_telemetry_json;
        Alcotest.test_case "jsonl file" `Quick test_telemetry_jsonl_file;
        Alcotest.test_case "jsonl append on resume" `Quick test_telemetry_jsonl_append;
        Alcotest.test_case "jsonl durable close" `Quick test_telemetry_jsonl_durable_close;
        Alcotest.test_case "close is idempotent" `Quick test_telemetry_close_idempotent;
        Alcotest.test_case "multi close is exception-safe" `Quick
          test_telemetry_multi_close_exception_safe;
        Alcotest.test_case "progress line snapshot" `Quick test_telemetry_progress_snapshot;
        Alcotest.test_case "schema doc lists every type" `Quick test_telemetry_schema_doc ] );
    ( "campaign.orchestrator",
      [ Alcotest.test_case "exec-budget runs are deterministic" `Quick
          test_exec_budget_deterministic;
        Alcotest.test_case "rejects bad config" `Quick test_campaign_rejects_bad_config;
        Alcotest.test_case "rejects unspendable epochs" `Quick
          test_campaign_rejects_unspendable_config;
        Alcotest.test_case "campaign is deterministic" `Slow test_campaign_deterministic;
        Alcotest.test_case "parallel >= single coverage" `Slow test_campaign_parallel_vs_single;
        Alcotest.test_case "kill and resume" `Slow test_campaign_kill_and_resume;
        Alcotest.test_case "telemetry stream" `Slow test_campaign_telemetry_stream ] );
    ( "testcase.hardening",
      [ Alcotest.test_case "rejects NaN/Inf" `Quick test_csv_rejects_non_finite;
        Alcotest.test_case "rejects truncated rows" `Quick test_csv_rejects_truncated_row ] ) ]

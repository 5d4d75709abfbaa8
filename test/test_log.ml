(* Tests for structured logging (Cftcg_obs.Log), the crash flight
   recorder (Cftcg_obs.Flight), telemetry feed rotation, the fault
   injection hook, and the local campaign crash → post-mortem dump
   path. The JSONL/JSON outputs are parsed back with the serve
   daemon's Wire parser — the log line schema is a wire format, not
   just printf output. *)

module Log = Cftcg_obs.Log
module Flight = Cftcg_obs.Flight
module Metrics = Cftcg_obs.Metrics
module Wire = Cftcg_serve.Wire
module Telemetry = Cftcg_campaign.Telemetry
module Campaign = Cftcg_campaign.Campaign
module Fault = Cftcg_util.Fault
module Codegen = Cftcg_codegen.Codegen
module Models = Cftcg_bench_models.Bench_models

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* every test leaves the process-global logging state off *)
let with_log_off f =
  Fun.protect
    ~finally:(fun () ->
      Log.set_level None;
      Log.close_file ();
      Flight.set_enabled false;
      Flight.clear ();
      Flight.set_capacity 256)
    f

let temp_dir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%.0f" prefix (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  Unix.mkdir d 0o755;
  d

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let obj_field name = function
  | Wire.Obj l -> List.assoc_opt name l
  | _ -> None

let str_field name j =
  match obj_field name j with
  | Some (Wire.Str s) -> Some s
  | _ -> None

(* --- levels and gating --- *)

let test_level_parsing () =
  Alcotest.(check bool) "debug" true (Log.level_of_string "debug" = Ok (Some Log.Debug));
  Alcotest.(check bool) "info" true (Log.level_of_string "info" = Ok (Some Log.Info));
  Alcotest.(check bool) "warn" true (Log.level_of_string "warn" = Ok (Some Log.Warn));
  Alcotest.(check bool) "warning" true (Log.level_of_string "warning" = Ok (Some Log.Warn));
  Alcotest.(check bool) "error" true (Log.level_of_string "error" = Ok (Some Log.Error));
  Alcotest.(check bool) "off" true (Log.level_of_string "off" = Ok None);
  (match Log.level_of_string "loud" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown level must be rejected")

let test_level_gating () =
  with_log_off @@ fun () ->
  Alcotest.(check bool) "off by default" false (Log.enabled Log.Error);
  Log.set_level (Some Log.Warn);
  Alcotest.(check bool) "error passes" true (Log.enabled Log.Error);
  Alcotest.(check bool) "warn passes" true (Log.enabled Log.Warn);
  Alcotest.(check bool) "info gated" false (Log.enabled Log.Info);
  Alcotest.(check bool) "debug gated" false (Log.enabled Log.Debug);
  Alcotest.(check bool) "current" true (Log.current_level () = Some Log.Warn);
  Log.set_level None;
  Alcotest.(check bool) "off again" false (Log.enabled Log.Error)

(* --- JSONL line schema --- *)

let test_jsonl_lines_parse () =
  with_log_off @@ fun () ->
  let path = Filename.temp_file "cftcg_loglines" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Log.set_level (Some Log.Debug);
  Log.open_file path;
  Log.with_ctx [ ("job", "c1") ] (fun () ->
      Log.info "plain %d" 42;
      Log.warn ~fields:[ ("k", "v\"quote\\slash\nnl") ] "tricky");
  Log.debug "no ctx";
  (* gated line must not be written *)
  Log.set_level (Some Log.Error);
  Log.info "suppressed";
  Log.close_file ();
  let lines = read_lines path in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  let parsed = List.map Wire.of_string lines in
  let l1 = List.nth parsed 0 and l2 = List.nth parsed 1 and l3 = List.nth parsed 2 in
  Alcotest.(check (option string)) "msg" (Some "plain 42") (str_field "msg" l1);
  Alcotest.(check (option string)) "level" (Some "info") (str_field "level" l1);
  Alcotest.(check (option string)) "ctx threaded" (Some "c1") (str_field "job" l1);
  Alcotest.(check bool) "ts present" true
    (match obj_field "ts" l1 with
    | Some (Wire.Num t) -> t > 0.0
    | _ -> false);
  Alcotest.(check (option string)) "adversarial field value round-trips"
    (Some "v\"quote\\slash\nnl") (str_field "k" l2);
  Alcotest.(check (option string)) "ctx restored" None (str_field "job" l3)

let test_ctx_nesting_and_restore () =
  with_log_off @@ fun () ->
  Alcotest.(check (list (pair string string))) "empty outside" [] (Log.ctx ());
  Log.with_ctx [ ("job", "a") ] (fun () ->
      Alcotest.(check (list (pair string string))) "outer" [ ("job", "a") ] (Log.ctx ());
      Log.with_ctx [ ("worker", "3"); ("job", "b") ] (fun () ->
          (* inner same-key binding overrides, outer order preserved *)
          let c = Log.ctx () in
          Alcotest.(check (option string)) "override" (Some "b") (List.assoc_opt "job" c);
          Alcotest.(check (option string)) "added" (Some "3") (List.assoc_opt "worker" c));
      Alcotest.(check (list (pair string string))) "restored" [ ("job", "a") ] (Log.ctx ());
      (try Log.with_ctx [ ("job", "boom") ] (fun () -> failwith "x") with
      | Failure _ -> ());
      Alcotest.(check (list (pair string string))) "restored after raise" [ ("job", "a") ]
        (Log.ctx ()));
  Alcotest.(check (list (pair string string))) "empty again" [] (Log.ctx ())

(* --- flight recorder ring --- *)

let test_flight_disabled_is_noop () =
  with_log_off @@ fun () ->
  Flight.record ~level:"info" "nope";
  Alcotest.(check int) "nothing retained" 0 (List.length (Flight.recent ()));
  Alcotest.(check bool) "dump disabled" true (Flight.dump ~reason:"r" () = None)

let test_flight_ring_wraparound () =
  with_log_off @@ fun () ->
  Flight.set_enabled true;
  Flight.set_capacity 8;
  (* a fresh domain gets a fresh ring at the new capacity *)
  let d =
    Domain.spawn (fun () ->
        for i = 1 to 20 do
          Flight.record ~level:"info" (Printf.sprintf "wrap evt %d" i)
        done)
  in
  Domain.join d;
  let msgs = List.map (fun e -> e.Flight.fl_msg) (Flight.recent ()) in
  let mine = List.filter (fun m -> contains "wrap evt" m) msgs in
  Alcotest.(check int) "ring kept the newest 8" 8 (List.length mine);
  Alcotest.(check bool) "newest present" true (List.mem "wrap evt 20" mine);
  Alcotest.(check bool) "oldest kept is 13" true (List.mem "wrap evt 13" mine);
  Alcotest.(check bool) "older overwritten" false (List.mem "wrap evt 12" mine);
  (* oldest-first ordering by timestamp *)
  let ts = List.map (fun e -> e.Flight.fl_ts) (Flight.recent ()) in
  Alcotest.(check bool) "sorted" true (List.sort compare ts = ts)

(* Domains that exit hand their rings on: epoch after epoch of
   two-worker spawns retains at most three rings' worth of events (the
   main domain's and two workers'), not one ring per domain ever
   spawned. *)
let test_flight_rings_reused_across_epochs () =
  with_log_off @@ fun () ->
  Flight.set_enabled true;
  Flight.clear ();
  let capacity = 256 and epochs = 50 in
  for epoch = 1 to epochs do
    let worker w () =
      for i = 1 to capacity + 44 do
        Flight.record ~level:"debug" (Printf.sprintf "epoch %d worker %d evt %d" epoch w i)
      done
    in
    let ds = [ Domain.spawn (worker 1); Domain.spawn (worker 2) ] in
    List.iter Domain.join ds
  done;
  let kept = Flight.recent ~limit:max_int () in
  if List.length kept > 3 * capacity then
    Alcotest.failf "%d events retained after %d epochs, bound %d" (List.length kept) epochs
      (3 * capacity);
  (* a worker that starts after the other exited reuses its ring, so
     only the last ring written is sure to hold the last epoch *)
  let last_epoch = Printf.sprintf "epoch %d " epochs in
  let n_last =
    List.length (List.filter (fun e -> String.starts_with ~prefix:last_epoch e.Flight.fl_msg) kept)
  in
  if n_last < capacity then
    Alcotest.failf "%d events of the last epoch kept, want a full ring (%d)" n_last capacity

let test_flight_recent_limit () =
  with_log_off @@ fun () ->
  Flight.set_enabled true;
  for i = 1 to 10 do
    Flight.record ~ts:(float_of_int i) ~level:"info" (Printf.sprintf "lim %d" i)
  done;
  let r = Flight.recent ~limit:3 () in
  Alcotest.(check (list string)) "newest 3, oldest first" [ "lim 8"; "lim 9"; "lim 10" ]
    (List.map (fun e -> e.Flight.fl_msg) r)

let test_flight_dump_roundtrip () =
  with_log_off @@ fun () ->
  let dir = temp_dir "cftcg_dump" in
  Flight.set_enabled true;
  Flight.set_dump_dir dir;
  Flight.register_provider "good" (fun () -> "{\"answer\":42}");
  Flight.register_provider "bad" (fun () -> failwith "provider died");
  Flight.record ~fields:[ ("job", "c9") ] ~level:"error" "it broke";
  let c = Metrics.counter "cftcg_test_dump_total" in
  Metrics.set_collect true;
  Metrics.inc c;
  let path =
    match Flight.dump ~fields:[ ("job", "c9") ] ~reason:"unit test" () with
    | Some p -> p
    | None -> Alcotest.fail "dump refused"
  in
  Metrics.set_collect false;
  Alcotest.(check bool) "named postmortem" true
    (contains "postmortem-" (Filename.basename path));
  let j = Wire.of_string (String.concat "\n" (read_lines path)) in
  Alcotest.(check (option string)) "reason" (Some "unit test") (str_field "reason" j);
  (match obj_field "fields" j with
  | Some f -> Alcotest.(check (option string)) "dump fields" (Some "c9") (str_field "job" f)
  | None -> Alcotest.fail "no fields object");
  (match obj_field "events" j with
  | Some (Wire.Arr evs) ->
    Alcotest.(check bool) "ring dumped" true
      (List.exists (fun e -> str_field "msg" e = Some "it broke") evs);
    Alcotest.(check bool) "event carries its fields" true
      (List.exists
         (fun e ->
           match obj_field "fields" e with
           | Some f -> str_field "job" f = Some "c9"
           | None -> str_field "job" e = Some "c9")
         evs)
  | _ -> Alcotest.fail "no events array");
  (match obj_field "snapshots" j with
  | Some snaps ->
    (match obj_field "good" snaps with
    | Some (Wire.Obj g) -> Alcotest.(check bool) "provider value" true
        (List.assoc_opt "answer" g = Some (Wire.Num 42.0))
    | _ -> Alcotest.fail "good provider missing");
    Alcotest.(check bool) "raising provider is null" true (obj_field "bad" snaps <> None)
  | None -> Alcotest.fail "no snapshots object");
  (match obj_field "metrics" j with
  | Some (Wire.Str prom) ->
    Alcotest.(check bool) "metrics snapshot embedded" true
      (contains "cftcg_test_dump_total" prom)
  | _ -> Alcotest.fail "no metrics snapshot");
  (* a second dump in the same process gets a distinct file *)
  (match Flight.dump ~reason:"again" () with
  | Some p2 -> Alcotest.(check bool) "distinct file" true (p2 <> path)
  | None -> Alcotest.fail "second dump refused")

(* --- telemetry rotation --- *)

let seq_of line = Wire.get_int ~default:(-1) "seq" (Wire.of_string line)

let chain_segments path =
  (* oldest first: highest .N down to the live file *)
  let rec highest n = if Sys.file_exists (path ^ "." ^ string_of_int (n + 1)) then highest (n + 1) else n in
  let n = if Sys.file_exists (path ^ ".1") then highest 1 else 0 in
  List.init n (fun i -> path ^ "." ^ string_of_int (n - i)) @ [ path ]

let test_telemetry_rotation () =
  let dir = temp_dir "cftcg_rot" in
  let path = Filename.concat dir "events.jsonl" in
  let sink = Telemetry.jsonl ~max_bytes:200 path in
  for i = 1 to 20 do
    sink.Telemetry.emit (Telemetry.Plateau { epoch = i; stalled_epochs = 1 })
  done;
  sink.Telemetry.close ();
  Alcotest.(check bool) "rotated at least once" true (Sys.file_exists (path ^ ".1"));
  (* every segment stays within one event of the limit *)
  List.iter
    (fun seg ->
      let len = (Unix.stat seg).Unix.st_size in
      Alcotest.(check bool) (seg ^ " bounded") true (len <= 200 + 120))
    (chain_segments path);
  (* seq runs 0..19 across the whole chain, oldest segment first *)
  let seqs = List.concat_map (fun seg -> List.map seq_of (read_lines seg)) (chain_segments path) in
  Alcotest.(check (list int)) "seq continuous across chain" (List.init 20 Fun.id) seqs;
  (* append resume continues the seq from the total chain line count *)
  let sink2 = Telemetry.jsonl ~append:true ~max_bytes:200 path in
  sink2.Telemetry.emit (Telemetry.Plateau { epoch = 99; stalled_epochs = 2 });
  sink2.Telemetry.close ();
  let last = List.hd (List.rev (read_lines path)) in
  Alcotest.(check int) "resumed seq" 20 (seq_of last);
  (* a fresh (non-append) feed removes the stale chain *)
  let sink3 = Telemetry.jsonl ~max_bytes:200 path in
  sink3.Telemetry.close ();
  Alcotest.(check bool) "stale chain removed" false (Sys.file_exists (path ^ ".1"));
  Alcotest.(check int) "fresh file truncated" 0 (List.length (read_lines path))

let test_telemetry_rotation_rejects_bad_limit () =
  match Telemetry.jsonl ~max_bytes:0 "nope.jsonl" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_bytes < 1 must be rejected"

(* --- fault hook --- *)

let test_fault_hook_fires_on_injection () =
  let fired = ref [] in
  Fun.protect ~finally:(fun () -> Fault.set_on_inject (fun _ -> ())) @@ fun () ->
  Fault.set_on_inject (fun p -> fired := Fault.point_name p :: !fired);
  Fault.with_armed [ (Fault.Worker_raise, Fault.Nth 2) ] (fun () ->
      Alcotest.(check bool) "first check clean" false (Fault.fire Fault.Worker_raise);
      Alcotest.(check (list string)) "hook silent" [] !fired;
      Alcotest.(check bool) "second check fires" true (Fault.fire Fault.Worker_raise);
      Alcotest.(check (list string)) "hook saw the injection" [ "worker_raise" ] !fired);
  (* a raising hook must not change injection behavior *)
  Fault.set_on_inject (fun _ -> failwith "hook bug");
  Fault.with_armed [ (Fault.Store_write, Fault.Nth 1) ] (fun () ->
      Alcotest.(check bool) "fires despite raising hook" true (Fault.fire Fault.Store_write))

(* --- campaign crash → post-mortem dump --- *)

let test_campaign_crash_dumps_postmortem () =
  with_log_off @@ fun () ->
  let dir = temp_dir "cftcg_crashdump" in
  Flight.set_enabled true;
  Flight.set_dump_dir dir;
  let e = Option.get (Models.find "SolarPV") in
  let prog = Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model) in
  let ccfg =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = 11L;
      total_execs = 2000;
      execs_per_epoch = 500;
      on_worker_crash = Campaign.Degrade;
      job = Some "crashjob"
    }
  in
  let r = Fault.with_armed [ (Fault.Worker_raise, Fault.Nth 1) ] (fun () -> Campaign.run ~config:ccfg prog) in
  Alcotest.(check bool) "campaign survived (Degrade)" true (r.Campaign.executions > 0);
  let dumps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> contains "postmortem-" f)
  in
  Alcotest.(check bool) "a post-mortem was written" true (dumps <> []);
  let j = Wire.of_string (String.concat "\n" (read_lines (Filename.concat dir (List.hd dumps)))) in
  Alcotest.(check bool) "reason names the crash" true
    (match str_field "reason" j with
    | Some reason -> contains "worker crash" reason
    | None -> false);
  (match obj_field "fields" j with
  | Some f ->
    Alcotest.(check (option string)) "correlates the job" (Some "crashjob") (str_field "job" f);
    Alcotest.(check bool) "names the worker" true (str_field "worker" f <> None)
  | None -> Alcotest.fail "no fields object");
  (* a registered provider made it into the dump *)
  (match obj_field "snapshots" j with
  | Some snaps ->
    Alcotest.(check bool) "corpus_store snapshot" true (obj_field "corpus_store" snaps <> None)
  | None -> Alcotest.fail "no snapshots object")

(* --- each campaign fact is reported once, through its event --- *)

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* a jobs-2 hybrid TCP campaign that runs in well under a second and
   still plateaus into a solver phase *)
let hybrid_tcp_run sink =
  let e = Option.get (Models.find "TCP") in
  let prog = Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model) in
  let ccfg =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = 5L;
      total_execs = 8_000;
      execs_per_epoch = 312;
      plateau_epochs = 2;
      stop_on_full = false;
      sink;
      job = Some "events";
      hybrid = Some { Campaign.default_hybrid with Campaign.solver_execs = 3_000 }
    }
  in
  let r = Campaign.run ~config:ccfg prog in
  Alcotest.(check bool) "a solver phase ran" true (r.Campaign.solver_rounds > 0);
  r

let test_one_log_line_per_event () =
  with_log_off @@ fun () ->
  let path = Filename.concat (temp_dir "cftcg_eventlog") "log.jsonl" in
  Log.set_level (Some Log.Debug);
  Log.open_file path;
  let sink, events = Telemetry.ring ~capacity:100_000 () in
  ignore (hybrid_tcp_run sink);
  Log.close_file ();
  let lines = List.map Wire.of_string (read_lines path) in
  (* worker heartbeats and discoveries are the two unlogged kinds *)
  let logged =
    List.filter
      (function Telemetry.Exec_batch _ | Telemetry.New_probe _ -> false | _ -> true)
      (events ())
  in
  let expected =
    List.map
      (fun e ->
        (Option.get (str_field "type" (Wire.of_string (Telemetry.to_json e))), Telemetry.describe e))
      logged
  in
  let event_lines, other_lines = List.partition (fun l -> str_field "event" l <> None) lines in
  Alcotest.(check (list (pair string string))) "one line per logged event, in emission order"
    expected
    (List.map
       (fun l -> (Option.get (str_field "event" l), Option.get (str_field "msg" l)))
       event_lines);
  Alcotest.(check bool) "solver events logged" true
    (List.exists (fun (ty, _) -> ty = "solver_done") expected);
  (* the final plateau names the stall that stopped the campaign, not
     the count the solver phase restarted *)
  (match List.filter_map (function Telemetry.Plateau p -> Some p.stalled_epochs | _ -> None) logged with
  | [ stalled ] -> Alcotest.(check bool) "plateau stall >= window" true (stalled >= 2)
  | _ -> Alcotest.fail "the campaign must end on one plateau");
  (* every other line states a fact no event carries: the campaign's
     start, each worker's budget, and the fuzzer's own run lines *)
  List.iter
    (fun l ->
      let msg = Option.get (str_field "msg" l) in
      Alcotest.(check bool) ("line without an event: " ^ msg) true
        (List.exists
           (fun p -> starts_with p msg)
           [ "campaign start"; "worker start"; "fuzzer run" ]))
    other_lines

let metric_value name prom =
  List.find_map
    (fun line ->
      if starts_with (name ^ " ") line then
        int_of_string_opt (String.sub line (String.length name + 1) (String.length line - String.length name - 1))
      else None)
    (String.split_on_char '\n' prom)

let test_dump_carries_solver_counters () =
  with_log_off @@ fun () ->
  let dir = temp_dir "cftcg_solverdump" in
  Flight.set_enabled true;
  Flight.set_dump_dir dir;
  let names =
    [ "cftcg_campaign_solver_phases_total"; "cftcg_campaign_solver_solved_total";
      "cftcg_campaign_solver_executions_total" ]
  in
  (* process-wide counters: this campaign's share is the delta *)
  let before = List.map (fun n -> Metrics.value (Metrics.counter n)) names in
  let r = hybrid_tcp_run Telemetry.null in
  let path =
    match Flight.dump ~reason:"after a solver phase" () with
    | Some p -> p
    | None -> Alcotest.fail "dump refused"
  in
  let prom =
    Option.get (str_field "metrics" (Wire.of_string (String.concat "\n" (read_lines path))))
  in
  List.iter2
    (fun (name, base) delta ->
      match metric_value name prom with
      | Some v -> Alcotest.(check int) name (base + delta) v
      | None -> Alcotest.failf "%s missing from the dump" name)
    (List.combine names before)
    [ r.Campaign.solver_rounds; r.Campaign.solver_solved; r.Campaign.solver_executions ]

let suites =
  [ ( "log.levels",
      [ Alcotest.test_case "level parsing" `Quick test_level_parsing;
        Alcotest.test_case "gating" `Quick test_level_gating ] );
    ( "log.lines",
      [ Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
        Alcotest.test_case "ctx nesting and restore" `Quick test_ctx_nesting_and_restore ] );
    ( "log.flight",
      [ Alcotest.test_case "disabled is noop" `Quick test_flight_disabled_is_noop;
        Alcotest.test_case "ring wraparound" `Quick test_flight_ring_wraparound;
        Alcotest.test_case "recent limit" `Quick test_flight_recent_limit;
        Alcotest.test_case "rings reused across epochs" `Quick
          test_flight_rings_reused_across_epochs;
        Alcotest.test_case "dump roundtrip" `Quick test_flight_dump_roundtrip ] );
    ( "log.rotation",
      [ Alcotest.test_case "size-based rotation" `Quick test_telemetry_rotation;
        Alcotest.test_case "rejects bad limit" `Quick test_telemetry_rotation_rejects_bad_limit ] );
    ( "log.fault",
      [ Alcotest.test_case "hook fires on injection" `Quick test_fault_hook_fires_on_injection ] );
    ( "log.crash",
      [ Alcotest.test_case "campaign crash dumps post-mortem" `Slow
          test_campaign_crash_dumps_postmortem ] );
    ( "log.events",
      [ Alcotest.test_case "one log line per campaign event" `Slow test_one_log_line_per_event;
        Alcotest.test_case "dump carries solver counters" `Slow
          test_dump_carries_solver_counters ] ) ]

(* Tests for the Cftcg_obs observability layer: metrics registry +
   Prometheus exposition, trace spans + Chrome export, the Figure-7
   coverage series, and the end-to-end guarantees the fuzzing layers
   promise — same-seed byte-parity with observability on vs off, and
   the VM profile agreeing with the reference dispatch counter. *)

open Cftcg_model
module Metrics = Cftcg_obs.Metrics
module Trace = Cftcg_obs.Trace
module Series = Cftcg_obs.Series
module Log = Cftcg_obs.Log
module Flight = Cftcg_obs.Flight
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Campaign = Cftcg_campaign.Campaign
module Telemetry = Cftcg_campaign.Telemetry
module Models = Cftcg_bench_models.Bench_models

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let solar_pv () =
  let e = Option.get (Models.find "SolarPV") in
  Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model)

(* every test leaves the process-global observability state off *)
let with_obs_off f =
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_collect false;
      Trace.set_enabled false;
      Trace.clear ();
      Log.set_level None;
      Log.close_file ();
      Flight.set_enabled false;
      Flight.clear ())
    f

(* --- Metrics --- *)

let test_metrics_counter () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "requests_total" in
  Metrics.inc c;
  Metrics.add c 4;
  Alcotest.(check int) "counted" 5 (Metrics.value c);
  (* same name + labels: the same instrument *)
  let c' = Metrics.counter ~registry:r "requests_total" in
  Metrics.inc c';
  Alcotest.(check int) "interned" 6 (Metrics.value c);
  (* different labels: independent *)
  let c2 = Metrics.counter ~registry:r ~labels:[ ("k", "v") ] "requests_total" in
  Alcotest.(check int) "labelled is separate" 0 (Metrics.value c2)

let test_metrics_kind_mismatch () =
  let r = Metrics.create () in
  ignore (Metrics.counter ~registry:r "thing");
  match Metrics.gauge ~registry:r "thing" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same name as a different kind must be rejected"

let test_metrics_prometheus () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r ~help:"total things" ~labels:[ ("s", "a\"b\\c\nd") ] "things_total" in
  Metrics.add c 3;
  let g = Metrics.gauge ~registry:r ~help:"a gauge" "speed" in
  Metrics.set g 1.5;
  let h = Metrics.histogram ~registry:r ~buckets:[| 10.0; 100.0 |] "lat" in
  Metrics.observe h 5.0;
  Metrics.observe h 50.0;
  Metrics.observe h 500.0;
  let out = Metrics.to_prometheus r in
  Alcotest.(check bool) "help" true (contains "# HELP things_total total things" out);
  Alcotest.(check bool) "type counter" true (contains "# TYPE things_total counter" out);
  Alcotest.(check bool) "label escaped" true
    (contains "things_total{s=\"a\\\"b\\\\c\\nd\"} 3" out);
  Alcotest.(check bool) "gauge" true (contains "speed 1.5" out);
  (* histogram buckets are cumulative, +Inf implied *)
  Alcotest.(check bool) "bucket 10" true (contains "lat_bucket{le=\"10\"} 1" out);
  Alcotest.(check bool) "bucket 100" true (contains "lat_bucket{le=\"100\"} 2" out);
  Alcotest.(check bool) "bucket inf" true (contains "lat_bucket{le=\"+Inf\"} 3" out);
  Alcotest.(check bool) "count" true (contains "lat_count 3" out);
  Alcotest.(check bool) "sum" true (contains "lat_sum 555" out);
  Alcotest.(check int) "histogram_count" 3 (Metrics.histogram_count h);
  (* deterministic: exporting twice gives the same text *)
  Alcotest.(check string) "stable" out (Metrics.to_prometheus r)

(* exposition-format 0.0.4: label values escape backslash, quote and
   newline; HELP text escapes only backslash and newline *)
let test_metrics_adversarial_escaping () =
  let r = Metrics.create () in
  let adversarial = "q\"uo\\te\nnl\ttab" in
  let c = Metrics.counter ~registry:r ~help:"back\\slash and\nnewline" ~labels:[ ("v", adversarial) ] "adv_total" in
  Metrics.inc c;
  let out = Metrics.to_prometheus r in
  Alcotest.(check bool) "help escaped" true
    (contains "# HELP adv_total back\\\\slash and\\nnewline" out);
  Alcotest.(check bool) "label escaped" true
    (contains "adv_total{v=\"q\\\"uo\\\\te\\nnl\ttab\"} 1" out);
  (* an empty label value and a value that is only escapes round-trip *)
  let c2 = Metrics.counter ~registry:r ~labels:[ ("a", ""); ("b", "\\\n\"") ] "adv2_total" in
  Metrics.inc c2;
  let out2 = Metrics.to_prometheus r in
  Alcotest.(check bool) "empty + all-escape values" true
    (contains "adv2_total{a=\"\",b=\"\\\\\\n\\\"\"} 1" out2)

let test_metrics_clear () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "x_total" in
  Metrics.inc c;
  Metrics.clear r;
  Alcotest.(check bool) "gone from export" false (contains "x_total" (Metrics.to_prometheus r));
  (* the old handle keeps working without crashing *)
  Metrics.inc c;
  Alcotest.(check int) "handle survives" 2 (Metrics.value c)

(* --- Trace --- *)

let test_trace_disabled_is_passthrough () =
  with_obs_off @@ fun () ->
  Trace.clear ();
  let v = Trace.with_span "nope" (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 v;
  Trace.instant "nope";
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()))

let test_trace_records_spans () =
  with_obs_off @@ fun () ->
  Trace.clear ();
  Trace.set_enabled true;
  let v = Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> 7)) in
  Trace.instant ~args:[ ("k", "v") ] "marker";
  Trace.set_enabled false;
  Alcotest.(check int) "result" 7 v;
  let evs = Trace.events () in
  Alcotest.(check (list string)) "names, oldest first" [ "inner"; "outer"; "marker" ]
    (List.map (fun e -> e.Trace.ev_name) evs);
  List.iter
    (fun e ->
      Alcotest.(check bool) "ts >= 0" true (e.Trace.ev_ts_us >= 0.0);
      Alcotest.(check bool) "dur >= 0" true (e.Trace.ev_dur_us >= 0.0))
    evs;
  let json = Trace.to_chrome () in
  Alcotest.(check bool) "complete event" true (contains "\"ph\":\"X\"" json);
  Alcotest.(check bool) "instant event" true (contains "\"ph\":\"i\"" json);
  Alcotest.(check bool) "args" true (contains "\"args\":{\"k\":\"v\"}" json);
  Alcotest.(check bool) "array" true (json.[0] = '[');
  Trace.clear ();
  Alcotest.(check int) "cleared" 0 (List.length (Trace.events ()))

let test_trace_span_survives_raise () =
  with_obs_off @@ fun () ->
  Trace.clear ();
  Trace.set_enabled true;
  (try Trace.with_span "boom" (fun () -> failwith "x") with
  | Failure _ -> ());
  Trace.set_enabled false;
  Alcotest.(check (list string)) "recorded anyway" [ "boom" ]
    (List.map (fun e -> e.Trace.ev_name) (Trace.events ()))

(* --- Series --- *)

let test_series_collapses_flat_points () =
  let s = Series.create ~probes_total:20 () in
  Series.record s ~time:0.1 ~execs:10 ~covered:3;
  Series.record s ~time:0.2 ~execs:20 ~covered:3;  (* flat: slides forward *)
  Series.record s ~time:0.3 ~execs:30 ~covered:8;
  let pts = Series.points s in
  Alcotest.(check int) "corners only" 2 (List.length pts);
  let last = List.nth pts 1 in
  Alcotest.(check int) "covered" 8 last.Series.pt_covered;
  let first = List.hd pts in
  Alcotest.(check int) "flat point slid to latest exec" 20 first.Series.pt_execs;
  let csv = Series.to_csv s in
  Alcotest.(check bool) "total comment" true (contains "# probes_total=20" csv);
  Alcotest.(check bool) "header" true (contains "time_s,execs,probes_covered" csv);
  Alcotest.(check bool) "row" true (contains "0.300000,30,8" csv)

let test_series_set_probes_total () =
  let s = Series.create () in
  Alcotest.(check bool) "unknown" true (Series.probes_total s = None);
  Series.set_probes_total s 99;
  Alcotest.(check bool) "set later" true (Series.probes_total s = Some 99)

(* --- byte-parity: observability must not perturb campaigns --- *)

let suite_bytes (r : Fuzzer.result) =
  List.map (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data) r.Fuzzer.test_suite

let test_fuzzer_parity_obs_on_off () =
  with_obs_off @@ fun () ->
  let prog = solar_pv () in
  let config = { Fuzzer.default_config with Fuzzer.seed = 77L } in
  let run () = Fuzzer.run ~config prog (Fuzzer.Exec_budget 3000) in
  (* process-wide counters: read this run's share as a delta *)
  let iterations () = Metrics.value (Metrics.counter "cftcg_fuzz_iterations_total") in
  let resumed () = Metrics.value (Metrics.counter "cftcg_fuzz_resumed_iterations_total") in
  let rejoined () = Metrics.value (Metrics.counter "cftcg_fuzz_rejoined_iterations_total") in
  Metrics.set_collect false;
  Trace.set_enabled false;
  let before = (iterations (), resumed (), rejoined ()) in
  let off = run () in
  Alcotest.(check (triple int int int)) "nothing counted while off" before
    (iterations (), resumed (), rejoined ());
  let it0, re0, rj0 = before in
  Metrics.set_collect true;
  Trace.set_enabled true;
  let series = Series.create () in
  let on = Fuzzer.run ~config ~coverage_series:series prog (Fuzzer.Exec_budget 3000) in
  let d_iterations = iterations () - it0 and d_resumed = resumed () - re0 in
  let d_rejoined = rejoined () - rj0 in
  Alcotest.(check int) "iterations counted" on.Fuzzer.stats.Fuzzer.iterations d_iterations;
  Alcotest.(check bool)
    (Printf.sprintf "resumed and rejoined iterations counted: %d + %d of %d" d_resumed d_rejoined
       d_iterations)
    true
    (d_resumed > 0 && d_rejoined > 0 && d_resumed + d_rejoined < d_iterations);
  Alcotest.(check (list bytes)) "same suite bytes" (suite_bytes off) (suite_bytes on);
  Alcotest.(check int) "same executions" off.Fuzzer.stats.Fuzzer.executions
    on.Fuzzer.stats.Fuzzer.executions;
  Alcotest.(check int) "same coverage" off.Fuzzer.stats.Fuzzer.probes_covered
    on.Fuzzer.stats.Fuzzer.probes_covered;
  (* and the instrumentation actually observed the run *)
  let execs = Metrics.value (Metrics.counter "cftcg_fuzz_executions_total") in
  Alcotest.(check bool) "executions counted" true (execs >= 3000);
  Alcotest.(check bool) "series non-empty" true (Series.points series <> []);
  let last = List.nth (Series.points series) (List.length (Series.points series) - 1) in
  Alcotest.(check int) "series ends at final coverage" on.Fuzzer.stats.Fuzzer.probes_covered
    last.Series.pt_covered

let test_campaign_parity_obs_on_off () =
  with_obs_off @@ fun () ->
  let prog = solar_pv () in
  let ccfg =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = 5L;
      total_execs = 4000;
      execs_per_epoch = 500;
      stop_on_full = false
    }
  in
  Metrics.set_collect false;
  Trace.set_enabled false;
  let off = Campaign.run ~config:ccfg prog in
  Metrics.set_collect true;
  Trace.set_enabled true;
  let series = Series.create () in
  (* the campaign counters count every campaign in the process: read
     this run's share as a delta *)
  let epochs () = Metrics.value (Metrics.counter "cftcg_campaign_epochs_total") in
  let epochs_before = epochs () in
  let on =
    Campaign.run ~config:{ ccfg with Campaign.sink = Telemetry.series_bridge series } prog
  in
  Alcotest.(check (list bytes)) "same merged suite" off.Campaign.suite on.Campaign.suite;
  Alcotest.(check int) "same executions" off.Campaign.executions on.Campaign.executions;
  Alcotest.(check int) "same coverage" off.Campaign.probes_covered on.Campaign.probes_covered;
  Alcotest.(check bool) "epoch series recorded" true (Series.points series <> []);
  Alcotest.(check int) "bridge counted epochs" (List.length on.Campaign.epochs)
    (epochs () - epochs_before)

(* --- byte-parity: logging must not perturb campaigns either --- *)

let with_logging_on f =
  let path = Filename.temp_file "cftcg_log" ".jsonl" in
  Log.set_level (Some Log.Debug);
  Flight.set_enabled true;
  Log.open_file path;
  Fun.protect
    ~finally:(fun () ->
      Log.set_level None;
      Log.close_file ();
      Flight.set_enabled false;
      Flight.clear ();
      Sys.remove path)
    (fun () -> f path)

let test_fuzzer_parity_log_on_off () =
  with_obs_off @@ fun () ->
  let prog = solar_pv () in
  let config = { Fuzzer.default_config with Fuzzer.seed = 78L } in
  let run () = Fuzzer.run ~config prog (Fuzzer.Exec_budget 3000) in
  let off = run () in
  let on = with_logging_on (fun _ -> run ()) in
  Alcotest.(check (list bytes)) "same suite bytes" (suite_bytes off) (suite_bytes on);
  Alcotest.(check int) "same executions" off.Fuzzer.stats.Fuzzer.executions
    on.Fuzzer.stats.Fuzzer.executions;
  Alcotest.(check int) "same coverage" off.Fuzzer.stats.Fuzzer.probes_covered
    on.Fuzzer.stats.Fuzzer.probes_covered

let test_campaign_parity_log_on_off () =
  with_obs_off @@ fun () ->
  let prog = solar_pv () in
  let ccfg =
    { Campaign.default_config with
      Campaign.jobs = 2;
      seed = 6L;
      total_execs = 4000;
      execs_per_epoch = 500;
      stop_on_full = false;
      job = Some "parity"
    }
  in
  let off = Campaign.run ~config:ccfg prog in
  let on, logged =
    with_logging_on (fun path ->
        let r = Campaign.run ~config:ccfg prog in
        Log.close_file ();
        let ic = open_in path in
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        close_in ic;
        (r, !n))
  in
  Alcotest.(check (list bytes)) "same merged suite" off.Campaign.suite on.Campaign.suite;
  Alcotest.(check int) "same executions" off.Campaign.executions on.Campaign.executions;
  Alcotest.(check int) "same coverage" off.Campaign.probes_covered on.Campaign.probes_covered;
  (* the logged run actually logged something *)
  Alcotest.(check bool) "log lines written" true (logged > 0)

(* --- VM profile mode --- *)

let test_vm_profile_matches_reference () =
  let prog = solar_pv () in
  let layout = Layout.of_program prog in
  let rng = Cftcg_util.Rng.create 3L in
  let data =
    Bytes.concat Bytes.empty (List.init 32 (fun _ -> Layout.random_tuple_bytes layout rng))
  in
  let rows =
    Array.init 32 (fun tuple ->
        Array.map
          (fun (f : Layout.field) ->
            Value.to_float
              (Value.decode f.Layout.f_ty data ((tuple * layout.Layout.tuple_len) + f.Layout.f_offset)))
          layout.Layout.fields)
  in
  let vm = Cftcg_ir.Ir_vm.compile prog in
  let bp = Cftcg_ir.Ir_vm.profile vm rows in
  let lin = Cftcg_ir.Ir_vm.linearized vm in
  Alcotest.(check int) "total = reference dynamic_count"
    (Cftcg_ir.Ir_opt.dynamic_count lin rows)
    bp.Cftcg_ir.Ir_opt.bp_dispatches;
  Alcotest.(check int) "init + step = total"
    bp.Cftcg_ir.Ir_opt.bp_dispatches
    (bp.Cftcg_ir.Ir_opt.bp_init_dispatches + bp.Cftcg_ir.Ir_opt.bp_step_dispatches);
  Alcotest.(check int) "opcode histogram sums to total" bp.Cftcg_ir.Ir_opt.bp_dispatches
    (Array.fold_left ( + ) 0 bp.Cftcg_ir.Ir_opt.bp_opcode_dyn);
  Alcotest.(check int) "init hits sum" bp.Cftcg_ir.Ir_opt.bp_init_dispatches
    (Array.fold_left ( + ) 0 bp.Cftcg_ir.Ir_opt.bp_init_hits);
  Alcotest.(check int) "step hits sum" bp.Cftcg_ir.Ir_opt.bp_step_dispatches
    (Array.fold_left ( + ) 0 bp.Cftcg_ir.Ir_opt.bp_step_hits);
  (* hit-annotated disassembly carries the counts *)
  let dis =
    Cftcg_ir.Ir_opt.disassemble
      ~hits:(bp.Cftcg_ir.Ir_opt.bp_init_hits, bp.Cftcg_ir.Ir_opt.bp_step_hits)
      lin
  in
  Alcotest.(check bool) "annotated" true (contains " x " dis);
  (* profiling must not disturb the VM instance *)
  let bp2 = Cftcg_ir.Ir_vm.profile vm rows in
  Alcotest.(check int) "repeatable" bp.Cftcg_ir.Ir_opt.bp_dispatches
    bp2.Cftcg_ir.Ir_opt.bp_dispatches

(* --- HTML report curve --- *)

let test_html_report_curve () =
  let prog = solar_pv () in
  let recorder = Cftcg_coverage.Recorder.create prog in
  let html =
    Cftcg_coverage.Html_report.render ~model_name:"SolarPV"
      ~coverage_curve:[ (0.0, 0); (1.5, 10); (4.0, 25) ]
      ~probes_total:40 recorder
  in
  Alcotest.(check bool) "has curve section" true (contains "Coverage over time" html);
  Alcotest.(check bool) "has svg" true (contains "<svg" html);
  Alcotest.(check bool) "axis shows total" true (contains ">40</text>" html);
  (* without a curve the section is absent *)
  let plain = Cftcg_coverage.Html_report.render ~model_name:"SolarPV" recorder in
  Alcotest.(check bool) "no curve section" false (contains "Coverage over time" plain)

let suites =
  [ ( "obs.metrics",
      [ Alcotest.test_case "counter" `Quick test_metrics_counter;
        Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
        Alcotest.test_case "prometheus exposition" `Quick test_metrics_prometheus;
        Alcotest.test_case "adversarial escaping" `Quick test_metrics_adversarial_escaping;
        Alcotest.test_case "clear" `Quick test_metrics_clear ] );
    ( "obs.trace",
      [ Alcotest.test_case "disabled passthrough" `Quick test_trace_disabled_is_passthrough;
        Alcotest.test_case "records nested spans" `Quick test_trace_records_spans;
        Alcotest.test_case "span survives raise" `Quick test_trace_span_survives_raise ] );
    ( "obs.series",
      [ Alcotest.test_case "collapses flat points" `Quick test_series_collapses_flat_points;
        Alcotest.test_case "set probes total" `Quick test_series_set_probes_total ] );
    ( "obs.parity",
      [ Alcotest.test_case "fuzzer byte-parity obs on/off" `Slow test_fuzzer_parity_obs_on_off;
        Alcotest.test_case "campaign byte-parity obs on/off" `Slow
          test_campaign_parity_obs_on_off;
        Alcotest.test_case "fuzzer byte-parity log on/off" `Slow test_fuzzer_parity_log_on_off;
        Alcotest.test_case "campaign byte-parity log on/off" `Slow
          test_campaign_parity_log_on_off ] );
    ( "obs.profile",
      [ Alcotest.test_case "vm profile matches reference" `Quick
          test_vm_profile_matches_reference ] );
    ( "obs.html",
      [ Alcotest.test_case "coverage curve svg" `Quick test_html_report_curve ] ) ]

(* cftcg — command-line front end.

   Subcommands:
     fuzz      run a CFTCG campaign on a model file, emit CSV test cases
     emit-c    print the generated C fuzz code + driver for a model
     coverage  replay a CSV test suite and report coverage
     convert   convert one binary (hex) test case to CSV or back
     corpus    maintain on-disk corpus directories (fsck)
     models    list / export the built-in benchmark models
     serve     fuzzing-as-a-service daemon (multi-tenant scheduler)
     submit    submit a campaign to a running daemon
     status    query a running daemon *)

open Cmdliner
open Cftcg_model
module Codegen = Cftcg_codegen.Codegen
module Fuzzer = Cftcg_fuzz.Fuzzer
module Layout = Cftcg_fuzz.Layout
module Recorder = Cftcg_coverage.Recorder
module Testcase = Cftcg_testcase.Testcase
module Models = Cftcg_bench_models.Bench_models
module Mutate = Cftcg_fuzz.Mutate
module Ir_opt = Cftcg_ir.Ir_opt

let load_model path =
  match Models.find path with
  | Some e -> Lazy.force e.Models.model
  | None -> (
    try Slx.load_file path with
    | Slx.Load_error msg ->
      Printf.eprintf "cannot load %s: %s\n" path msg;
      exit 1
    | Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1)

let model_arg =
  let doc = "Model: a .slx.xml file or the name of a built-in benchmark (e.g. SolarPV)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the campaign.")

(* ------------------------------------------------------------------ *)

(* Port=lo:hi with finite bounds; NaN or infinite bounds would feed
   non-finite values into the inports the range clamps *)
let parse_range spec =
  let bad () =
    Printf.eprintf "bad range %S (expected Port=lo:hi)\n" spec;
    exit 1
  in
  match String.split_on_char '=' spec with
  | [ name; range ] -> (
    match String.split_on_char ':' range with
    | [ lo; hi ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi) with
      | Some lo, Some hi when Float.is_finite lo && Float.is_finite hi -> (name, lo, hi)
      | _ -> bad ())
    | _ -> bad ())
  | _ -> bad ()

let crash_policy_conv =
  let module Campaign = Cftcg_campaign.Campaign in
  let parse = function
    | "abort" -> Ok Campaign.Abort
    | "degrade" -> Ok Campaign.Degrade
    | s -> Error (`Msg (Printf.sprintf "unknown crash policy %S (expected abort or degrade)" s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with Campaign.Abort -> "abort" | Campaign.Degrade -> "degrade")
  in
  Arg.conv (parse, print)

(* arm the fault-injection harness for chaos runs; prints the
   injection tally at exit so a scripted run can see what fired.
   A chaos run always gets the flight recorder: every fired fault is
   recorded in the ring, and a salvaged worker crash dumps a
   post-mortem naming the injection point. *)
let arm_faults spec fault_seed =
  match spec with
  | None -> ()
  | Some spec ->
    let module Fault = Cftcg_util.Fault in
    let module Flight = Cftcg_obs.Flight in
    let module Log = Cftcg_obs.Log in
    (try Fault.arm_spec ~seed:(Int64.of_int fault_seed) spec with
    | Invalid_argument msg ->
      Printf.eprintf "bad --inject-faults spec: %s\n" msg;
      exit 1);
    Flight.set_enabled true;
    Fault.set_on_inject (fun p ->
        let name = Fault.point_name p in
        if Log.enabled Log.Warn then
          Log.warn ~fields:[ ("fault", name) ] "fault injected at %s" name
        else Flight.record ~fields:[ ("fault", name) ] ~level:"warn"
            (Printf.sprintf "fault injected at %s" name));
    at_exit (fun () ->
        Array.iter
          (fun p ->
            if Fault.hits p > 0 then
              Printf.eprintf "fault %s: %d injected / %d checks\n" (Fault.point_name p)
                (Fault.injected p) (Fault.hits p))
          Fault.all_points)

(* observability flags shared by fuzz and profile: enable collection,
   run the body, then write the requested exports *)
let with_observability ?(force = false) ?(want_series = false) ~metrics_out ~trace_out
    ~coverage_csv body =
  let module Metrics = Cftcg_obs.Metrics in
  let module Trace = Cftcg_obs.Trace in
  let module Series = Cftcg_obs.Series in
  if force || metrics_out <> None then Metrics.set_collect true;
  if force || trace_out <> None then Trace.set_enabled true;
  let series =
    if force || want_series || coverage_csv <> None then Some (Series.create ()) else None
  in
  let result = body series in
  (match metrics_out with
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Metrics.to_prometheus Metrics.default));
    Printf.printf "wrote metrics to %s\n" path
  | None -> ());
  (match trace_out with
  | Some path ->
    Trace.save_chrome path;
    Printf.printf "wrote Chrome trace to %s (load in about:tracing or ui.perfetto.dev)\n" path
  | None -> ());
  (match (coverage_csv, series) with
  | Some path, Some s ->
    Series.save_csv s path;
    Printf.printf "wrote coverage series to %s\n" path
  | _ -> ());
  result

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc:"Write a Prometheus text-format metrics dump to FILE at the end of the run (enables metric collection).")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Record tracing spans and write a Chrome trace-event JSON file (loadable in about:tracing / Perfetto).")

let coverage_csv_arg =
  Arg.(value & opt (some string) None & info [ "coverage-csv" ] ~docv:"FILE" ~doc:"Write the coverage-over-time series (paper Figure 7) as CSV: time_s,execs,probes_covered.")

let log_out_arg =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc:"Write structured JSONL log lines (with job/worker/epoch correlation ids) to FILE; enables logging at $(b,--log-level).")

let log_level_arg =
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc:"Logging threshold: $(b,debug), $(b,info) (default), $(b,warn), $(b,error), or $(b,off).")

(* parse --log-level, open the --log sink and enable the flight
   recorder. [always] (the serve daemon) turns logging on even
   without --log — the ring then feeds /debug/log and post-mortem
   dumps; a local fuzz run only logs when a file is requested. *)
let setup_logging ?(always = false) log_out log_level =
  let module Log = Cftcg_obs.Log in
  let module Flight = Cftcg_obs.Flight in
  match Log.level_of_string log_level with
  | Error msg ->
    Printf.eprintf "bad --log-level: %s\n" msg;
    exit 1
  | Ok lvl ->
    if always || log_out <> None then begin
      Log.set_level lvl;
      Flight.set_enabled true;
      (match log_out with
      | Some path -> Log.open_file path
      | None -> ());
      at_exit Log.close_file
    end

let fuzz_cmd =
  let run model_path seconds execs out_dir seed ranges seed_dir jobs corpus resume telemetry
      epoch_execs max_runtime epoch_deadline on_worker_crash inject_faults
      fault_seed metrics_out trace_out coverage_csv html_out log_out log_level hybrid
      solver_budget solver_rounds =
    (* --jobs 0: one worker per hardware thread, minus the coordinator *)
    let jobs = if jobs = 0 then Cftcg_campaign.Worker_pool.default_capacity () else jobs in
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be >= 0 (got %d)\n" jobs;
      exit 1
    end;
    if resume && corpus = None then begin
      Printf.eprintf "--resume requires --corpus (there is no manifest to resume from)\n";
      exit 1
    end;
    arm_faults inject_faults fault_seed;
    setup_logging log_out log_level;
    let model = load_model model_path in
    let seeds =
      match seed_dir with
      | None -> []
      | Some dir ->
        let layout = Layout.of_inports (Graph.inports model) in
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".csv")
        |> List.map (Filename.concat dir)
        |> Testcase.load_suite layout
    in
    let config =
      { Fuzzer.default_config with
        Fuzzer.seed = Int64.of_int seed;
        ranges = List.map parse_range ranges;
        seeds
      }
    in
    (* a range on no inport would constrain nothing: refuse it before
       any fuzzing, in either mode *)
    (match Layout.with_ranges (Layout.of_inports (Graph.inports model)) config.Fuzzer.ranges with
    | _ -> ()
    | exception Invalid_argument msg ->
      Printf.eprintf "bad range: %s\n" msg;
      exit 1);
    (* --hybrid needs the campaign machinery (plateau detection and
       the coordinator's merged coverage map), so it forces the
       campaign path even single-worker *)
    let parallel = jobs > 1 || corpus <> None || resume || telemetry <> None || hybrid in
    (* one budget rule for both paths: --execs overrides time, else
       --time is the wall ceiling; --max-runtime caps either *)
    let wall =
      match (execs, max_runtime) with
      | Some _, _ -> max_runtime
      | None, Some s -> Some (Float.min s seconds)
      | None, None -> Some seconds
    in
    let series_ref = ref None in
    let layout, prog, suite =
      with_observability ~want_series:(html_out <> None) ~metrics_out ~trace_out ~coverage_csv
      @@ fun series ->
      series_ref := series;
      if parallel then begin
        (* ensemble campaign: N worker domains in epochs with corpus
           merge, optional persistence/resume, telemetry stream *)
        let module Campaign = Cftcg.Pipeline.Campaign in
        let module Telemetry = Cftcg_campaign.Telemetry in
        let sinks =
          Telemetry.progress stderr
          :: ((match telemetry with
              | Some path -> [ Telemetry.jsonl ~append:resume path ]
              | None -> [])
             @
             match series with
             | Some s -> [ Telemetry.series_bridge s ]
             | None -> [])
        in
        let sink = Telemetry.multi sinks in
        let ccfg =
          { Campaign.default_config with
            Campaign.jobs = jobs;
            seed = Int64.of_int seed;
            total_execs = Option.value execs ~default:max_int;
            execs_per_epoch = epoch_execs;
            fuzzer = config;
            corpus_dir = corpus;
            resume;
            sink;
            on_worker_crash;
            max_runtime = wall;
            epoch_deadline;
            job = Some (Printf.sprintf "fuzz-%d" (Unix.getpid ()));
            hybrid =
              (if hybrid then
                 Some
                   { Campaign.default_hybrid with
                     Campaign.solver_execs = solver_budget;
                     solver_rounds
                   }
               else None)
          }
        in
        (match Campaign.validate ccfg with
        | Error msg ->
          Printf.eprintf "invalid campaign settings: %s\n" msg;
          exit 1
        | Ok () -> ());
        let pc =
          try Cftcg.Pipeline.run_parallel_campaign ~config:ccfg model with
          | Campaign.Worker_crashed { worker; epoch; message } ->
            Printf.eprintf "worker %d crashed in epoch %d: %s\n" worker epoch message;
            exit 1
        in
        sink.Telemetry.close ();
        let r = pc.Cftcg.Pipeline.pc_result in
        (* this process owns its one campaign: the gauges go unlabeled into --metrics *)
        let gauge name help v =
          Cftcg_obs.Metrics.(set (gauge ~help ("cftcg_campaign_" ^ name)) (float_of_int v))
        in
        gauge "executions" "Cumulative executions across all workers" r.Campaign.executions;
        gauge "probes_covered" "Probes covered by the merged global corpus" r.Campaign.probes_covered;
        gauge "corpus_size" "Global corpus size after fingerprint dedup" (List.length r.Campaign.suite);
        (match series with
        | Some s -> Cftcg_obs.Series.set_probes_total s r.Campaign.probes_total
        | None -> ());
        if r.Campaign.resumed then Printf.printf "resumed from %s\n" (Option.get corpus);
        Printf.printf "jobs: %d\nepochs: %d%s\nexecutions: %d\nprobes: %d/%d\ncorpus: %d entries\n"
          ccfg.Campaign.jobs
          (List.length r.Campaign.epochs)
          (if r.Campaign.stop_reason = Some Campaign.Plateau then " (stopped on plateau)" else "")
          r.Campaign.executions r.Campaign.probes_covered r.Campaign.probes_total
          (List.length r.Campaign.suite);
        if r.Campaign.solver_rounds > 0 then
          Printf.printf "solver: %d phase(s), %d probe(s) closed, %d execs\n"
            r.Campaign.solver_rounds r.Campaign.solver_solved r.Campaign.solver_executions;
        (match r.Campaign.stop_reason with
        | Some reason -> Printf.printf "stop reason: %s\n" (Campaign.stop_reason_string reason)
        | None -> ());
        List.iter
          (fun (f : Fuzzer.failure) -> Printf.printf "FAILURE: %s\n" f.Fuzzer.f_message)
          r.Campaign.failures;
        Format.printf "coverage: %a@." Recorder.pp_report pc.Cftcg.Pipeline.pc_coverage;
        ( pc.Cftcg.Pipeline.pc_gen.Cftcg.Pipeline.layout,
          pc.Cftcg.Pipeline.pc_gen.Cftcg.Pipeline.program,
          r.Campaign.suite )
      end
      else begin
        let budget =
          match (execs, wall) with
          | Some n, Some s -> Fuzzer.Wall_budget { max_execs = n; max_seconds = s }
          | Some n, None -> Fuzzer.Exec_budget n
          | None, s -> Fuzzer.Time_budget (Option.value s ~default:seconds)
        in
        (* a wall clock: under an exec budget [stats.elapsed] is the
           execution count, not seconds *)
        let t0 = Unix.gettimeofday () in
        let campaign = Cftcg.Pipeline.run_campaign ~config ?coverage_series:series model budget in
        let wall = Unix.gettimeofday () -. t0 in
        let stats = campaign.Cftcg.Pipeline.fuzz.Fuzzer.stats in
        Printf.printf "executions: %d\nmodel iterations: %d\niteration rate: %.0f/s\n"
          stats.Fuzzer.executions stats.Fuzzer.iterations
          (float_of_int stats.Fuzzer.iterations /. Float.max wall 1e-9);
        Format.printf "coverage: %a@." Recorder.pp_report campaign.Cftcg.Pipeline.coverage;
        ( campaign.Cftcg.Pipeline.gen.Cftcg.Pipeline.layout,
          campaign.Cftcg.Pipeline.gen.Cftcg.Pipeline.program,
          List.map
            (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data)
            campaign.Cftcg.Pipeline.fuzz.Fuzzer.test_suite )
      end
    in
    (match html_out with
    | Some path ->
      (* replay the found suite on an instrumented build and render the
         HTML report, embedding the coverage-over-time curve recorded
         during the run *)
      let recorder = Cftcg.Evaluate.record prog suite in
      let curve =
        match !series_ref with
        | Some s ->
          List.map
            (fun (p : Cftcg_obs.Series.point) -> (p.Cftcg_obs.Series.pt_time, p.Cftcg_obs.Series.pt_covered))
            (Cftcg_obs.Series.points s)
        | None -> []
      in
      Cftcg_coverage.Html_report.save ~model_name:model.Graph.model_name ~coverage_curve:curve
        ~probes_total:prog.Cftcg_ir.Ir.n_probes recorder path;
      Printf.printf "wrote HTML report to %s\n" path
    | None -> ());
    let paths = Testcase.save_suite layout ~dir:out_dir ~prefix:model.Graph.model_name suite in
    Printf.printf "wrote %d test cases to %s\n" (List.length paths) out_dir
  in
  let seconds =
    Arg.(value & opt float 5.0 & info [ "t"; "time" ] ~docv:"SECONDS" ~doc:"Time budget, single-worker and campaign runs alike; ignored when $(b,--execs) is given. $(b,--max-runtime), if smaller, wins.")
  in
  let execs =
    Arg.(value & opt (some int) None & info [ "execs" ] ~docv:"N" ~doc:"Execution budget (overrides time).")
  in
  let out_dir =
    Arg.(value & opt string "testcases" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let ranges =
    Arg.(value & opt_all string [] & info [ "range" ] ~docv:"PORT=LO:HI" ~doc:"Constrain an inport's value range (repeatable).")
  in
  let seed_dir =
    Arg.(value & opt (some dir) None & info [ "seeds" ] ~docv:"DIR" ~doc:"Seed corpus: directory of CSV test cases executed first.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Parallel fuzzing workers (ensemble campaign with corpus merge between epochs). $(b,0) resolves to the machine default: one worker per hardware thread, minus one for the coordinator (never below 1).")
  in
  let corpus =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc:"Persist the merged corpus (content-addressed entries + manifest) to DIR after every epoch.")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ] ~doc:"Resume an interrupted campaign from the corpus manifest (requires --corpus).")
  in
  let telemetry =
    Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc:"Write the campaign's structured event stream as JSON lines to FILE.")
  in
  let epoch_execs =
    Arg.(value & opt int 1000 & info [ "epoch-execs" ] ~docv:"N" ~doc:"Per-worker executions between corpus merges (parallel mode).")
  in
  let max_runtime =
    Arg.(value & opt (some float) None & info [ "max-runtime" ] ~docv:"SECONDS" ~doc:"Hard wall-clock ceiling on the whole run: with $(b,--execs) the run ends at whichever limit is hit first, so a stalled target cannot hang the campaign. Without it, exec-budget runs stay purely on the virtual clock (byte-identical per seed).")
  in
  let epoch_deadline =
    Arg.(value & opt (some float) None & info [ "epoch-deadline" ] ~docv:"SECONDS" ~doc:"Wall-clock ceiling per worker epoch run (parallel mode).")
  in
  let on_worker_crash =
    Arg.(value & opt crash_policy_conv Cftcg_campaign.Campaign.Degrade
         & info [ "on-worker-crash" ] ~docv:"POLICY" ~doc:"What to do when a worker domain raises: $(b,degrade) (default) salvages the survivors and continues with one worker fewer; $(b,abort) stops the campaign with an error.")
  in
  let inject_faults =
    Arg.(value & opt (some string) None & info [ "inject-faults" ] ~docv:"SPEC" ~doc:"Arm the deterministic fault-injection harness (testing): comma-separated $(i,point=rate), $(i,point@k) or bare $(i,point) entries over store_write, store_rename, worker_raise, exec_stall — e.g. $(b,store_write=0.1,worker_raise\\@2).")
  in
  let fault_seed =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc:"Seed for the $(b,--inject-faults) schedule.")
  in
  let html_out =
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc:"Write a self-contained HTML coverage report for the generated suite, including the coverage-over-time curve.")
  in
  let hybrid =
    Arg.(value & flag & info [ "hybrid" ] ~doc:"Hybrid concolic campaign: at a coverage plateau, hand the still-uncovered probes to the bounded constraint solver under a deterministic exec budget, absorb the solved inputs as corpus seeds, and resume fuzzing — alternating until neither phase makes progress. Forces campaign mode; same-seed runs stay byte-identical.")
  in
  let solver_budget =
    Arg.(value & opt int Cftcg_campaign.Campaign.default_hybrid.Cftcg_campaign.Campaign.solver_execs
         & info [ "solver-budget" ] ~docv:"N" ~doc:"Solver executions per $(b,--hybrid) phase (clipped to the remaining $(b,--execs) budget).")
  in
  let solver_rounds =
    Arg.(value & opt int Cftcg_campaign.Campaign.default_hybrid.Cftcg_campaign.Campaign.solver_rounds
         & info [ "solver-rounds" ] ~docv:"K" ~doc:"Maximum solver phases per $(b,--hybrid) campaign.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run a CFTCG fuzzing campaign and emit CSV test cases.")
    Term.(const run $ model_arg $ seconds $ execs $ out_dir $ seed_arg $ ranges $ seed_dir $ jobs
          $ corpus $ resume $ telemetry $ epoch_execs $ max_runtime
          $ epoch_deadline $ on_worker_crash $ inject_faults $ fault_seed $ metrics_out_arg
          $ trace_out_arg $ coverage_csv_arg $ html_out $ log_out_arg $ log_level_arg $ hybrid
          $ solver_budget $ solver_rounds)

let emit_c_cmd =
  let run model_path branchless =
    let model = load_model model_path in
    let mode = if branchless then Codegen.Branchless else Codegen.Full in
    let prog = Codegen.lower ~mode model in
    print_string (Cftcg_ir.Cemit.emit_all prog)
  in
  let branchless =
    Arg.(value & flag & info [ "branchless" ] ~doc:"Emit the Fuzz-Only (branchless) build instead.")
  in
  Cmd.v
    (Cmd.info "emit-c" ~doc:"Print the generated C fuzz code and driver.")
    Term.(const run $ model_arg $ branchless)

let coverage_cmd =
  let run model_path csvs detailed html_out =
    let model = load_model model_path in
    let prog = Codegen.lower ~mode:Codegen.Full model in
    let layout = Layout.of_program prog in
    let suite =
      try Testcase.load_suite layout csvs with
      | Testcase.Parse_error msg ->
        Printf.eprintf "bad test case: %s\n" msg;
        exit 1
    in
    if detailed || html_out <> None then begin
      let recorder = Cftcg.Evaluate.record prog suite in
      if detailed then print_string (Recorder.detailed recorder);
      (match html_out with
      | Some path ->
        let ranges = Cftcg.Evaluate.signal_ranges prog suite in
        Cftcg_coverage.Html_report.save ~model_name:model.Graph.model_name
          ~signal_ranges:ranges recorder path;
        Printf.printf "wrote HTML report to %s\n" path
      | None -> ());
      Format.printf "%a@." Recorder.pp_report (Recorder.report recorder)
    end
    else begin
      let report = Cftcg.Evaluate.replay prog suite in
      Format.printf "%a@." Recorder.pp_report report
    end
  in
  let csvs = Arg.(value & pos_right 0 file [] & info [] ~docv:"CSV" ~doc:"Test case files.") in
  let detailed = Arg.(value & flag & info [ "detailed" ] ~doc:"Per-decision breakdown.") in
  let html_out =
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc:"Write a self-contained HTML coverage report.")
  in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Replay CSV test cases and report model coverage.")
    Term.(const run $ model_arg $ csvs $ detailed $ html_out)

let minimize_cmd =
  let run model_path csvs out_dir =
    let model = load_model model_path in
    let prog = Codegen.lower ~mode:Codegen.Full model in
    let layout = Layout.of_program prog in
    let suite =
      try Testcase.load_suite layout csvs with
      | Testcase.Parse_error msg ->
        Printf.eprintf "bad test case: %s\n" msg;
        exit 1
    in
    let kept, stats = Cftcg_fuzz.Minimize.suite prog suite in
    Printf.printf "kept %d, dropped %d (%d probe cells covered)\n" stats.Cftcg_fuzz.Minimize.kept
      stats.Cftcg_fuzz.Minimize.dropped stats.Cftcg_fuzz.Minimize.probes_covered;
    let paths = Testcase.save_suite layout ~dir:out_dir ~prefix:(model.Graph.model_name ^ "_min") kept in
    Printf.printf "wrote %d test cases to %s\n" (List.length paths) out_dir
  in
  let csvs = Arg.(value & pos_right 0 file [] & info [] ~docv:"CSV" ~doc:"Test case files.") in
  let out_dir =
    Arg.(value & opt string "minimized" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "minimize" ~doc:"Reduce a test suite while preserving its coverage.")
    Term.(const run $ model_arg $ csvs $ out_dir)

let convert_cmd =
  let run model_path hex =
    let model = load_model model_path in
    let layout = Layout.of_inports (Graph.inports model) in
    match hex with
    | Some h ->
      let data = Cftcg_util.Bytecodec.bytes_of_hex h in
      print_string (Testcase.to_csv layout data)
    | None ->
      (* read CSV from stdin, print hex *)
      let csv = In_channel.input_all stdin in
      let data = Testcase.of_csv layout csv in
      print_endline (Cftcg_util.Bytecodec.hex_of_bytes data)
  in
  let hex =
    Arg.(value & opt (some string) None & info [ "hex" ] ~docv:"HEX" ~doc:"Binary test case as hex; without it, CSV is read from stdin and hex is printed.")
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between binary (hex) and CSV test cases.")
    Term.(const run $ model_arg $ hex)

let simulate_cmd =
  let run model_path csv trace_out =
    let model = load_model model_path in
    let prog = Codegen.lower ~mode:Codegen.Plain model in
    let layout = Layout.of_program prog in
    let data =
      try
        let ic = open_in csv in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Testcase.of_csv layout (really_input_string ic (in_channel_length ic)))
      with
      | Testcase.Parse_error msg ->
        Printf.eprintf "bad test case: %s\n" msg;
        exit 1
    in
    let vm = Cftcg_ir.Ir_vm.compile ~optimize:false prog in
    Cftcg_ir.Ir_vm.reset vm;
    let out_names = Graph.outports model in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf ("step," ^ String.concat "," (Array.to_list out_names) ^ "\n");
    for tuple = 0 to Layout.n_tuples layout data - 1 do
      Layout.load_tuple_vm layout data ~tuple vm;
      Cftcg_ir.Ir_vm.step vm;
      Buffer.add_string buf (string_of_int tuple);
      Array.iteri
        (fun o _ ->
          let v = Cftcg_ir.Ir_vm.get_output vm o in
          Buffer.add_string buf ("," ^ Cftcg_model.Value.to_string v))
        out_names;
      Buffer.add_char buf '\n'
    done;
    match trace_out with
    | None -> print_string (Buffer.contents buf)
    | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Buffer.contents buf));
      Printf.printf "wrote trace to %s\n" path
  in
  let csv = Arg.(required & pos 1 (some file) None & info [] ~docv:"INPUT.CSV" ~doc:"Input test case.") in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT.CSV" ~doc:"Write the output trace to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one CSV test case through the model and print the output trace.")
    Term.(const run $ model_arg $ csv $ trace_out)

(* raw float rows (one per model iteration, port order) for the
   bytecode reference profiler, decoded the way the fuzz driver does *)
let rows_of_bytes (layout : Layout.t) data ~max_rows =
  let n = min (Layout.n_tuples layout data) max_rows in
  Array.init n (fun tuple ->
      Array.map
        (fun (f : Layout.field) ->
          Value.to_float
            (Value.decode f.Layout.f_ty data ((tuple * layout.Layout.tuple_len) + f.Layout.f_offset)))
        layout.Layout.fields)

let print_opcode_histogram ?(limit = 16) (bp : Ir_opt.bytecode_profile) =
  let total = max bp.Ir_opt.bp_dispatches 1 in
  let items =
    Array.to_list (Array.mapi (fun op n -> (n, op)) bp.Ir_opt.bp_opcode_dyn)
    |> List.filter (fun (n, _) -> n > 0)
    |> List.sort (fun a b -> compare b a)
  in
  List.iteri
    (fun i (n, op) ->
      if i < limit then
        Printf.printf "  %-16s %10d  %5.1f%%\n" (Ir_opt.opcode_name op) n
          (100.0 *. float_of_int n /. float_of_int total))
    items

let ir_cmd =
  let run model_path dump instrumented profile steps =
    let model = load_model model_path in
    let prog = Codegen.lower ~mode:Codegen.Full model in
    let lin =
      let instrument =
        if instrumented then
          { Cftcg_ir.Ir_linearize.probe_hook = true; cond = true; decision = true; branch = true }
        else Cftcg_ir.Ir_linearize.no_instrumentation
      in
      Cftcg_ir.Ir_linearize.linearize ~instrument prog
    in
    let opt = Ir_opt.optimize_bytecode lin in
    let summary label (l : Cftcg_ir.Ir_linearize.t) =
      Printf.printf "%-12s %5d insts, %4d regs, %3d consts\n" label
        (Ir_opt.static_count l)
        l.Cftcg_ir.Ir_linearize.l_n_regs
        (Array.length l.Cftcg_ir.Ir_linearize.l_consts)
    in
    Printf.printf "model %s (%s build)\n" model.Graph.model_name
      (if instrumented then "instrumented" else "plain");
    summary "bytecode" lin;
    summary "optimized" opt;
    let hits =
      if not profile then None
      else begin
        let layout = Layout.of_program prog in
        let rng = Cftcg_util.Rng.create 1L in
        let data =
          Bytes.concat Bytes.empty
            (List.init steps (fun _ -> Layout.random_tuple_bytes layout rng))
        in
        let rows = rows_of_bytes layout data ~max_rows:steps in
        let bp = Ir_opt.profile_bytecode opt rows in
        Printf.printf
          "\nprofile over %d random steps: %d dispatches (init %d, step %d)\nopcode histogram:\n"
          steps bp.Ir_opt.bp_dispatches bp.Ir_opt.bp_init_dispatches bp.Ir_opt.bp_step_dispatches;
        print_opcode_histogram bp;
        Some (bp.Ir_opt.bp_init_hits, bp.Ir_opt.bp_step_hits)
      end
    in
    if dump then begin
      print_string "\n== before optimization ==\n";
      print_string (Ir_opt.disassemble lin);
      print_string "\n== after optimization ==\n";
      (* hit counts (when profiling) belong to the optimized stream *)
      print_string (Ir_opt.disassemble ?hits opt)
    end
  in
  let dump =
    Arg.(value & flag & info [ "dump-bytecode" ] ~doc:"Print the full disassembly before and after the optimizer pipeline.")
  in
  let instrumented =
    Arg.(value & flag & info [ "instrumented" ] ~doc:"Linearize the fuzzing build with every hook instruction (probe hooks, condition and decision records, branch distances) instead of the plain build.")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ] ~doc:"Execute the optimized bytecode on random inputs and print the dynamic opcode histogram; with $(b,--dump-bytecode), annotate each instruction with its hit count.")
  in
  let steps =
    Arg.(value & opt int 256 & info [ "profile-steps" ] ~docv:"N" ~doc:"Model iterations to execute in $(b,--profile) mode.")
  in
  Cmd.v
    (Cmd.info "ir" ~doc:"Show bytecode optimizer statistics (and optionally disassembly) for a model.")
    Term.(const run $ model_arg $ dump $ instrumented $ profile $ steps)

let profile_cmd =
  let run model_path execs seed out_dir =
    let model = load_model model_path in
    if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
    let metrics_out = Some (Filename.concat out_dir "metrics.prom") in
    let trace_out = Some (Filename.concat out_dir "trace.json") in
    let coverage_csv = Some (Filename.concat out_dir "coverage.csv") in
    with_observability ~force:true ~metrics_out ~trace_out ~coverage_csv @@ fun series ->
    let config = { Fuzzer.default_config with Fuzzer.seed = Int64.of_int seed } in
    let wall0 = Unix.gettimeofday () in
    let campaign =
      Cftcg.Pipeline.run_campaign ~config ?coverage_series:series model (Fuzzer.Exec_budget execs)
    in
    let wall = Unix.gettimeofday () -. wall0 in
    let stats = campaign.Cftcg.Pipeline.fuzz.Fuzzer.stats in
    Printf.printf "model %s: %d executions, %d/%d probes covered, %.0f execs/s\n"
      model.Graph.model_name stats.Fuzzer.executions stats.Fuzzer.probes_covered
      stats.Fuzzer.probes_total
      (float_of_int stats.Fuzzer.executions /. Float.max wall 1e-9);
    (* per-strategy effectiveness counters (paper Table 1) *)
    let module Metrics = Cftcg_obs.Metrics in
    Printf.printf "\nmutation strategy effectiveness:\n  %-24s %8s %8s %8s\n" "strategy" "picked"
      "new-cov" "kept";
    Array.iter
      (fun s ->
        let labels = [ ("strategy", Mutate.strategy_name s) ] in
        let v name = Metrics.value (Metrics.counter ~labels name) in
        Printf.printf "  %-24s %8d %8d %8d\n" (Mutate.strategy_name s)
          (v "cftcg_fuzz_strategy_picked_total")
          (v "cftcg_fuzz_strategy_new_coverage_total")
          (v "cftcg_fuzz_strategy_kept_total"))
      Mutate.all_strategies;
    (* VM execution profile, replaying the suite this campaign found *)
    let gen = campaign.Cftcg.Pipeline.gen in
    let layout = gen.Cftcg.Pipeline.layout in
    let data =
      match
        List.map
          (fun (tc : Fuzzer.test_case) -> tc.Fuzzer.tc_data)
          campaign.Cftcg.Pipeline.fuzz.Fuzzer.test_suite
      with
      | [] ->
        let rng = Cftcg_util.Rng.create (Int64.of_int seed) in
        Bytes.concat Bytes.empty (List.init 64 (fun _ -> Layout.random_tuple_bytes layout rng))
      | suite -> Bytes.concat Bytes.empty suite
    in
    let rows = rows_of_bytes layout data ~max_rows:1024 in
    let vm = Cftcg_ir.Ir_vm.compile gen.Cftcg.Pipeline.program in
    let bp = Cftcg_ir.Ir_vm.profile vm rows in
    Printf.printf "\nvm profile over %d suite steps: %d dispatches\nopcode histogram:\n"
      (Array.length rows) bp.Ir_opt.bp_dispatches;
    print_opcode_histogram bp
  in
  let execs =
    Arg.(value & opt int 20_000 & info [ "execs" ] ~docv:"N" ~doc:"Execution budget for the profiled campaign.")
  in
  let out_dir =
    Arg.(value & opt string "profile" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Directory for trace.json, metrics.prom and coverage.csv.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a short instrumented campaign and emit a Chrome trace, a Prometheus metrics dump, a Figure-7 coverage CSV, per-strategy effectiveness counters and a VM opcode profile.")
    Term.(const run $ model_arg $ execs $ seed_arg $ out_dir)

let corpus_cmd =
  let module Store = Cftcg_campaign.Corpus_store in
  let fsck_cmd =
    let run dir quiet =
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "no such corpus directory: %s\n" dir;
        exit 1
      end;
      let report =
        Store.fsck ~on_salvage:(fun msg -> if not quiet then Printf.printf "quarantined: %s\n" msg) dir
      in
      Printf.printf "entries: %d valid (%d shards)\nmanifest: %s\norphans: %d\nquarantined: %d\n"
        report.Store.fsck_entries report.Store.fsck_shards
        (match report.Store.fsck_manifest with
        | `Ok -> "ok"
        | `Missing -> "missing (campaign accounting lost; entries recovered on next open)"
        | `Quarantined -> "corrupt, quarantined (entries recovered on next open)")
        report.Store.fsck_orphans
        (List.length report.Store.fsck_quarantined);
      let c = report.Store.fsck_counts in
      (* per-kind breakdown in a stable machine-greppable form; CI
         jobs assert on these lines *)
      Printf.printf
        "  tmp_files: %d\n  bad_names: %d\n  empty_entries: %d\n  unreadable: %d\n  corrupt_manifests: %d\n  corrupt_shard_manifests: %d\n"
        c.Store.fc_tmp_files c.Store.fc_bad_names c.Store.fc_empty_entries c.Store.fc_unreadable
        c.Store.fc_corrupt_manifests c.Store.fc_corrupt_shard_manifests;
      if report.Store.fsck_quarantined <> [] then exit 1
    in
    let dir =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Corpus directory (as passed to fuzz --corpus).")
    in
    let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary.") in
    Cmd.v
      (Cmd.info "fsck"
         ~doc:"Validate and repair a corpus directory: quarantine half-written or undecodable files to *.corrupt-N (never deleting data) and report what is left. Exits 1 if anything was quarantined.")
      Term.(const run $ dir $ quiet)
  in
  Cmd.group (Cmd.info "corpus" ~doc:"Maintain on-disk corpus directories.") [ fsck_cmd ]

let models_cmd =
  let run export_dir =
    (match export_dir with
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      List.iter
        (fun (e : Models.entry) ->
          let path = Filename.concat dir (e.Models.name ^ ".slx.xml") in
          Slx.save_file (Lazy.force e.Models.model) path;
          Printf.printf "wrote %s\n" path)
        Models.all
    | None -> ());
    Printf.printf "%-8s  %-36s %8s %7s\n" "name" "functionality" "#branch" "#block";
    List.iter
      (fun (e : Models.entry) ->
        let m = Lazy.force e.Models.model in
        let prog = Codegen.lower ~mode:Codegen.Full m in
        Printf.printf "%-8s  %-36s %8d %7d\n" e.Models.name e.Models.functionality
          (Recorder.branch_total prog) (Graph.block_count m))
      Models.all
  in
  let export =
    Arg.(value & opt (some string) None & info [ "export" ] ~docv:"DIR" ~doc:"Also export every model as .slx.xml into DIR.")
  in
  Cmd.v (Cmd.info "models" ~doc:"List (and optionally export) the built-in benchmark models.")
    Term.(const run $ export)

(* ------------------------------------------------------------------ *)
(* service mode: a long-lived daemon multiplexing campaigns over one
   worker pool, plus the submit/status clients that talk to it *)

module Serve_wire = Cftcg_serve.Wire
module Worker_pool = Cftcg_campaign.Worker_pool

let parse_addr spec =
  match Serve_wire.addr_of_string spec with
  | Ok a -> a
  | Error msg ->
    Printf.eprintf "bad endpoint %S: %s\n" spec msg;
    exit 1

let socket_arg =
  Arg.(value & opt string "cftcg.sock"
       & info [ "s"; "socket" ] ~docv:"ENDPOINT"
           ~doc:"Daemon endpoint: a Unix-domain socket path (optionally $(b,unix:)PATH) or $(b,tcp:)HOST:PORT (localhost only is recommended; the protocol is unauthenticated).")

let serve_cmd =
  let run socket pool_size quantum inject_faults fault_seed log_out log_level =
    arm_faults inject_faults fault_seed;
    (* the daemon always collects: /metrics is its reason to exist,
       and the flight recorder feeds /debug/log and post-mortems *)
    Cftcg_obs.Metrics.set_collect true;
    setup_logging ~always:true log_out log_level;
    let addr = parse_addr socket in
    let capacity = if pool_size = 0 then Worker_pool.default_capacity () else pool_size in
    if capacity < 1 then begin
      Printf.eprintf "--pool must be >= 0 (got %d)\n" pool_size;
      exit 1
    end;
    let pool = Worker_pool.create capacity in
    let sched = Cftcg_serve.Scheduler.create ~quantum ~pool () in
    let stop = Atomic.make false in
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
      [ Sys.sigterm; Sys.sigint ];
    let resolve name =
      match Models.find name with
      | Some e -> Ok (Cftcg.Pipeline.generate (Lazy.force e.Models.model)).Cftcg.Pipeline.program
      | None -> (
        match Slx.load_file name with
        | m -> Ok (Cftcg.Pipeline.generate m).Cftcg.Pipeline.program
        | exception Slx.Load_error msg -> Error msg
        | exception Sys_error msg -> Error msg)
    in
    Printf.printf "cftcg serve: listening on %s (pool: %d worker slots, quantum: %d execs)\n%!"
      (Serve_wire.addr_to_string addr) capacity quantum;
    (try Cftcg_serve.Server.serve ~resolve ~sched ~stop:(fun () -> Atomic.get stop) addr with
    | Failure msg ->
      Printf.eprintf "cftcg serve: %s\n" msg;
      exit 1
    | e ->
      (* daemon abort: dump the flight-recorder ring before dying so
         the crash context survives the process *)
      let msg = Printexc.to_string e in
      (match Cftcg_obs.Flight.dump ~reason:("daemon abort: " ^ msg) () with
      | Some path -> Printf.eprintf "cftcg serve: aborted (%s); post-mortem: %s\n" msg path
      | None -> Printf.eprintf "cftcg serve: aborted (%s)\n" msg);
      exit 1);
    Printf.printf "cftcg serve: shut down cleanly\n%!"
  in
  let pool_size =
    Arg.(value & opt int 0
         & info [ "pool" ] ~docv:"N"
             ~doc:"Shared worker-pool capacity: how many fuzzing domains may run at once across every campaign. $(b,0) (default) resolves to the machine default, one slot per hardware thread minus the coordinator.")
  in
  let quantum =
    Arg.(value & opt int 1000
         & info [ "quantum" ] ~docv:"EXECS"
             ~doc:"Fair-share quantum: executions of deficit credited to every live campaign per scheduling round (multiplied by the campaign's weight).")
  in
  let inject_faults =
    Arg.(value & opt (some string) None
         & info [ "inject-faults" ] ~docv:"SPEC"
             ~doc:"Arm the deterministic fault-injection harness for the whole daemon (chaos testing), e.g. $(b,worker_raise\\@3).")
  in
  let fault_seed =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc:"Seed for the $(b,--inject-faults) schedule.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fuzzing-as-a-service daemon: accept campaign submissions over a Unix-domain socket (or localhost TCP), multiplex them over one shared worker pool with per-tenant budgets and deficit round-robin fair scheduling, and export live Prometheus metrics on /metrics.")
    Term.(const run $ socket_arg $ pool_size $ quantum $ inject_faults $ fault_seed $ log_out_arg
          $ log_level_arg)

let request_or_die addr ~meth ~path ?body () =
  match Serve_wire.http_request addr ~meth ~path ?body () with
  | status, body -> (status, body)
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot reach daemon at %s: %s\n" (Serve_wire.addr_to_string addr)
      (Unix.error_message e);
    exit 1

let submit_cmd =
  let run socket model tenant weight tenant_budget seed jobs execs epoch_execs corpus resume =
    let addr = parse_addr socket in
    let fields =
      [
        ("model", Serve_wire.Str model);
        ("tenant", Serve_wire.Str tenant);
        ("weight", Serve_wire.Num (float_of_int weight));
        ("seed", Serve_wire.Num (float_of_int seed));
        ("jobs", Serve_wire.Num (float_of_int jobs));
        ("total_execs", Serve_wire.Num (float_of_int execs));
        ("execs_per_epoch", Serve_wire.Num (float_of_int epoch_execs));
        ("resume", Serve_wire.Bool resume);
      ]
      @ (match tenant_budget with
        | Some b -> [ ("tenant_budget", Serve_wire.Num (float_of_int b)) ]
        | None -> [])
      @ match corpus with
        | Some dir -> [ ("corpus_dir", Serve_wire.Str dir) ]
        | None -> []
    in
    let body = Serve_wire.to_string (Serve_wire.Obj fields) in
    match request_or_die addr ~meth:"POST" ~path:"/campaigns" ~body () with
    | 201, body ->
      let id = Serve_wire.get_string "id" (Serve_wire.of_string body) in
      Printf.printf "%s\n" id
    | status, body ->
      Printf.eprintf "submission rejected (HTTP %d): %s\n" status body;
      exit 1
  in
  let model =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL"
         ~doc:"Model: a built-in benchmark name or a .slx.xml path readable by the daemon.")
  in
  let tenant =
    Arg.(value & opt string "default" & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant to account this campaign against.")
  in
  let weight =
    Arg.(value & opt int 1 & info [ "weight" ] ~docv:"N" ~doc:"Fair-share weight relative to other campaigns.")
  in
  let tenant_budget =
    Arg.(value & opt (some int) None & info [ "tenant-budget" ] ~docv:"N"
         ~doc:"Set (or overwrite) the tenant's total execution budget across all its campaigns.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains per epoch; $(b,0) resolves to the daemon machine's default.")
  in
  let execs =
    Arg.(value & opt int 20_000 & info [ "execs" ] ~docv:"N" ~doc:"Total execution budget.")
  in
  let epoch_execs =
    Arg.(value & opt int 1000 & info [ "epoch-execs" ] ~docv:"N" ~doc:"Per-worker executions between corpus merges.")
  in
  let corpus =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc:"Persist the corpus to DIR on the daemon's filesystem (campaigns naming the same DIR share one sharded store).")
  in
  let resume = Arg.(value & flag & info [ "resume" ] ~doc:"Resume from the corpus manifest (requires --corpus).") in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a campaign to a running $(b,cftcg serve) daemon; prints the campaign id.")
    Term.(const run $ socket_arg $ model $ tenant $ weight $ tenant_budget $ seed_arg $ jobs
          $ execs $ epoch_execs $ corpus $ resume)

let status_cmd =
  let run socket id events wait =
    let addr = parse_addr socket in
    match id with
    | None ->
      (* no id: list all campaigns *)
      let status, body = request_or_die addr ~meth:"GET" ~path:"/campaigns" () in
      print_string body;
      print_newline ();
      if status <> 200 then exit 1
    | Some id ->
      let path = Printf.sprintf "/campaigns/%s%s" id (if events then "/events" else "") in
      let rec poll () =
        let status, body = request_or_die addr ~meth:"GET" ~path () in
        if status <> 200 then begin
          Printf.eprintf "HTTP %d: %s\n" status body;
          exit 1
        end;
        let terminal =
          (not wait) || events
          ||
          match Serve_wire.get_string ~default:"" "status" (Serve_wire.of_string body) with
          | "done" | "failed" | "cancelled" -> true
          | _ -> false
        in
        if terminal then begin
          print_string body;
          print_newline ();
          if wait && not events then
            match Serve_wire.get_string ~default:"" "status" (Serve_wire.of_string body) with
            | "failed" -> exit 1
            | _ -> ()
        end
        else begin
          Unix.sleepf 0.2;
          poll ()
        end
      in
      poll ()
  in
  let id =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID"
         ~doc:"Campaign id (as printed by $(b,cftcg submit)); without it, list every campaign.")
  in
  let events =
    Arg.(value & flag & info [ "events" ] ~doc:"Fetch the campaign's buffered telemetry feed (JSON lines) instead of the status document.")
  in
  let wait =
    Arg.(value & flag & info [ "wait" ] ~doc:"Poll until the campaign reaches a terminal state; exit 1 if it failed.")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Query a running $(b,cftcg serve) daemon for campaign status or telemetry.")
    Term.(const run $ socket_arg $ id $ events $ wait)

let () =
  let info = Cmd.info "cftcg" ~version:"1.0.0" ~doc:"Fuzzing-based test case generation for Simulink-like models." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ fuzz_cmd; emit_c_cmd; coverage_cmd; minimize_cmd; convert_cmd; simulate_cmd;
            ir_cmd; profile_cmd; corpus_cmd; models_cmd; serve_cmd; submit_cmd; status_cmd ]))

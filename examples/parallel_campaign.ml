(* Ensemble fuzzing: a 4-worker campaign on the SolarPV benchmark with
   corpus merge between epochs and a JSONL telemetry stream.

     dune exec examples/parallel_campaign.exe -- [total_execs] *)

module Models = Cftcg_bench_models.Bench_models
module Campaign = Cftcg_campaign.Campaign
module Telemetry = Cftcg_campaign.Telemetry
module Recorder = Cftcg_coverage.Recorder
module Tt = Cftcg_util.Texttable

let () =
  let total = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 20_000 in
  let entry = Option.get (Models.find "SolarPV") in
  let model = Lazy.force entry.Models.model in
  Printf.printf "SolarPV: %s\n\n" entry.Models.functionality;

  let jsonl_path = Filename.concat (Filename.get_temp_dir_name ()) "solarpv_campaign.jsonl" in
  let ring, events = Telemetry.ring () in
  let sink = Telemetry.multi [ ring; Telemetry.jsonl jsonl_path ] in
  let config =
    { Campaign.default_config with
      Campaign.jobs = 4;
      seed = 7L;
      total_execs = total;
      execs_per_epoch = total / 16;
      sink
    }
  in
  let pc = Cftcg.Pipeline.run_parallel_campaign ~config model in
  sink.Telemetry.close ();
  let r = pc.Cftcg.Pipeline.pc_result in

  (* coverage vs epoch *)
  let t = Tt.create [ "Epoch"; "Executions"; "Probes covered"; "Corpus" ] in
  List.iter
    (fun (ep : Campaign.epoch_stat) ->
      Tt.add_row t
        [ string_of_int ep.Campaign.ep_epoch; string_of_int ep.Campaign.ep_executions;
          Printf.sprintf "%d/%d" ep.Campaign.ep_probes_covered r.Campaign.probes_total;
          string_of_int ep.Campaign.ep_corpus_size ])
    r.Campaign.epochs;
  print_string (Tt.render t);

  Printf.printf "\n4 workers, %d executions, %d/%d probes, %d corpus entries%s\n"
    r.Campaign.executions r.Campaign.probes_covered r.Campaign.probes_total
    (List.length r.Campaign.suite)
    (if r.Campaign.stop_reason = Some Campaign.Plateau then " (stopped on plateau)" else "");
  Format.printf "merged-suite coverage: %a@." Recorder.pp_report pc.Cftcg.Pipeline.pc_coverage;

  (* what the telemetry stream recorded *)
  let count p = List.length (List.filter p (events ())) in
  Printf.printf "\ntelemetry: %d events (%d heartbeats, %d new-probe, %d corpus syncs)\n"
    (List.length (events ()))
    (count (function Telemetry.Exec_batch _ -> true | _ -> false))
    (count (function Telemetry.New_probe _ -> true | _ -> false))
    (count (function Telemetry.Corpus_sync _ -> true | _ -> false));
  Printf.printf "JSONL stream written to %s, e.g.:\n" jsonl_path;
  (match events () with
  | e :: _ -> Printf.printf "  %s\n" (Telemetry.to_json ~seq:0 e)
  | [] -> ())

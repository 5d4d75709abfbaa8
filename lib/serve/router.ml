(* Request routing for the serve daemon: maps the HTTP surface onto
   {!Scheduler} operations. Model resolution is injected ([resolve])
   so this library stays independent of the model/bench layers — the
   CLI passes a resolver over built-in benchmarks and .slx.xml
   files. *)

module Campaign = Cftcg_campaign.Campaign
module Worker_pool = Cftcg_campaign.Worker_pool
module Metrics = Cftcg_obs.Metrics
module Flight = Cftcg_obs.Flight

(* POST /campaigns body -> submission. Unknown fields are ignored;
   malformed ones raise Wire.Parse_error, turned into a 400 below, as
   is a well-formed one that Campaign.validate rejects. *)
let submission_of_body body =
  let j = Wire.of_string body in
  let model = Wire.get_string "model" j in
  let jobs =
    match Wire.get_int ~default:1 "jobs" j with
    | 0 -> Worker_pool.default_capacity ()  (* same convention as fuzz --jobs 0 *)
    | n -> n
  in
  (* hybrid opt-in: "hybrid": true enables the plateau→solve→resume
     phase; solver_execs / solver_rounds tune its budgets. Solver
     executions are charged to the tenant like fuzzing executions
     (they land in Campaign.step's return value). *)
  let hybrid =
    if Wire.get_bool ~default:false "hybrid" j then
      Some
        {
          Campaign.default_hybrid with
          Campaign.solver_execs =
            Wire.get_int ~default:Campaign.default_hybrid.Campaign.solver_execs "solver_execs" j;
          solver_rounds =
            Wire.get_int ~default:Campaign.default_hybrid.Campaign.solver_rounds "solver_rounds" j;
        }
    else None
  in
  let config =
    { Campaign.default_config with
      Campaign.jobs;
      hybrid;
      seed = Int64.of_int (Wire.get_int ~default:1 "seed" j);
      total_execs = Wire.get_int ~default:Campaign.default_config.Campaign.total_execs "total_execs" j;
      execs_per_epoch =
        Wire.get_int ~default:Campaign.default_config.Campaign.execs_per_epoch "execs_per_epoch" j;
      plateau_epochs =
        Wire.get_int ~default:Campaign.default_config.Campaign.plateau_epochs "plateau_epochs" j;
      max_epochs = Wire.get_int ~default:0 "max_epochs" j;
      seed_cap = Wire.get_int ~default:Campaign.default_config.Campaign.seed_cap "seed_cap" j;
      stop_on_full = Wire.get_bool ~default:true "stop_on_full" j;
      corpus_dir = Wire.get_string_opt "corpus_dir" j;
      resume = Wire.get_bool ~default:false "resume" j;
      on_worker_crash = Campaign.Degrade
    }
  in
  ( model,
    {
      Scheduler.sb_model = model;
      sb_tenant = Wire.get_string ~default:"default" "tenant" j;
      sb_weight = Wire.get_int ~default:1 "weight" j;
      sb_tenant_budget = Wire.get_int_opt "tenant_budget" j;
      sb_config = config;
    } )

(* GET /debug/log entry: the reserved keys plus the correlation
   fields flattened alongside, mirroring the JSONL line schema *)
let flight_entry_json (e : Flight.entry) =
  Wire.Obj
    ([
       ("ts", Wire.Num e.Flight.fl_ts);
       ("level", Wire.Str e.Flight.fl_level);
       ("msg", Wire.Str e.Flight.fl_msg);
     ]
    @ List.map (fun (k, v) -> (k, Wire.Str v)) e.Flight.fl_fields)

let segments path =
  (* strip a query string if any; the protocol defines none *)
  let path =
    match String.index_opt path '?' with
    | Some i -> String.sub path 0 i
    | None -> path
  in
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let dispatch ~resolve sched (rq : Wire.request) =
  let open Wire in
  try
    match (rq.rq_method, segments rq.rq_path) with
    | "GET", [ "healthz" ] -> json_response 200 (Scheduler.stats_json sched)
    | "GET", [ "metrics" ] ->
      {
        rs_status = 200;
        rs_content_type = "text/plain; version=0.0.4";
        rs_body = Metrics.to_prometheus Metrics.default;
      }
    | "POST", [ "campaigns" ] -> (
      let model, sub = submission_of_body rq.rq_body in
      match Campaign.validate sub.Scheduler.sb_config with
      | Error msg -> error_response 400 msg
      | Ok () -> (
        match resolve model with
        | Error msg -> error_response 400 (Printf.sprintf "cannot load model %S: %s" model msg)
        | Ok prog -> (
          match Scheduler.submit sched sub prog with
          | Error msg -> error_response 503 msg
          | Ok id -> json_response 201 (Obj [ ("id", Str id) ]))))
    | "GET", [ "campaigns" ] ->
      json_response 200 (Arr (List.map Job.summary_json (Scheduler.jobs sched)))
    | "GET", [ "campaigns"; id ] -> (
      match Scheduler.find sched id with
      | None -> error_response 404 "no such campaign"
      | Some job -> json_response 200 (Job.status_json job))
    | "GET", [ "campaigns"; id; "events" ] -> (
      match Scheduler.find sched id with
      | None -> error_response 404 "no such campaign"
      | Some job ->
        let lines, dropped = Job.event_lines job in
        let body = String.concat "\n" lines ^ if lines = [] then "" else "\n" in
        {
          rs_status = 200;
          rs_content_type = "application/x-ndjson";
          rs_body =
            (if dropped > 0 then
               Printf.sprintf "{\"event\":\"feed_truncated\",\"dropped\":%d}\n%s" dropped body
             else body);
        })
    | "DELETE", [ "campaigns"; id ] -> (
      match Scheduler.delete sched id with
      | Error `Not_found -> error_response 404 "no such campaign"
      | Ok `Deleted -> json_response 200 (Obj [ ("id", Str id); ("status", Str "deleted") ])
      | Ok `Cancelling -> json_response 202 (Obj [ ("id", Str id); ("status", Str "cancelling") ]))
    | "GET", [ "debug"; "jobs" ] ->
      json_response 200 (Arr (List.map Job.debug_json (Scheduler.jobs sched)))
    | "GET", [ "debug"; "log" ] ->
      let entries = Flight.recent ~limit:200 () in
      json_response 200
        (Obj
           [
             ("enabled", Bool (Flight.enabled ()));
             ("entries", Arr (List.map flight_entry_json entries));
           ])
    | _, ("campaigns" :: _ | "debug" :: _ | [ "healthz" ] | [ "metrics" ]) ->
      error_response 405 "method not allowed"
    | _ -> error_response 404 "not found"
  with
  | Wire.Parse_error msg -> error_response 400 msg
  | e -> error_response 500 (Printexc.to_string e)

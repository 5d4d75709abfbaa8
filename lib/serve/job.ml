(* One submitted campaign inside the serve daemon: identity, tenant
   accounting inputs, the bounded in-memory telemetry feed behind
   GET /campaigns/:id/events, the per-job labeled metrics behind
   GET /metrics, and the mutable scheduling state the deficit
   round-robin arbiter works on. All mutable fields are guarded by
   the owning scheduler's mutex except the event feed, which has its
   own lock so a slow events reader never stalls the arbiter. *)

module Campaign = Cftcg_campaign.Campaign
module Telemetry = Cftcg_campaign.Telemetry
module Metrics = Cftcg_obs.Metrics

type status =
  | Queued
  | Running
  | Done of Campaign.result
  | Failed of string
  | Cancelled

let status_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

let terminal = function
  | Queued | Running -> false
  | Done _ | Failed _ | Cancelled -> true

let max_event_lines = 10_000

type t = {
  jb_id : string;
  jb_model : string;  (* as submitted, informational *)
  jb_tenant : string;
  jb_weight : int;
  jb_prog : Cftcg_ir.Ir.program;
  mutable jb_config : Campaign.config;  (* sink attached at creation *)
  (* scheduler-owned state (guarded by the scheduler mutex) *)
  mutable jb_status : status;
  mutable jb_deficit : int;
  mutable jb_spent : int;  (* executions charged to the tenant *)
  mutable jb_cancel : bool;
  mutable jb_progress : Campaign.progress option;  (* snapshot after each step *)
  mutable jb_thread : Thread.t option;
  (* event feed (own lock) *)
  ev_mutex : Mutex.t;
  ev_lines : string Queue.t;
  mutable ev_seq : int;
  mutable ev_dropped : int;
  (* per-job labeled instruments, retired on delete *)
  jm_executions : Metrics.gauge;
  jm_covered : Metrics.gauge;
  jm_epochs : Metrics.counter;
}

let job_metric_names =
  [ "cftcg_serve_job_executions"; "cftcg_serve_job_probes_covered"; "cftcg_serve_job_epochs_total" ]

let create ~id ~model ~tenant ~weight ~config prog =
  let labels = [ ("job", id) ] in
  {
    jb_id = id;
    jb_model = model;
    jb_tenant = tenant;
    jb_weight = max 1 weight;
    jb_prog = prog;
    jb_config = config;
    jb_status = Queued;
    jb_deficit = 0;
    jb_spent = 0;
    jb_cancel = false;
    jb_progress = None;
    jb_thread = None;
    ev_mutex = Mutex.create ();
    ev_lines = Queue.create ();
    ev_seq = 0;
    ev_dropped = 0;
    jm_executions =
      Metrics.gauge ~labels ~help:"Cumulative executions of one served campaign"
        "cftcg_serve_job_executions";
    jm_covered =
      Metrics.gauge ~labels ~help:"Probes covered by one served campaign"
        "cftcg_serve_job_probes_covered";
    jm_epochs =
      Metrics.counter ~labels ~help:"Epochs completed by one served campaign"
        "cftcg_serve_job_epochs_total";
  }

let retire_metrics t =
  List.iter (fun name -> Metrics.remove_labeled name [ ("job", t.jb_id) ]) job_metric_names

(* The job's telemetry sink: each event is appended to the bounded
   feed as one pre-encoded JSONL line (oldest lines dropped past the
   cap, with the drop count kept), and Epoch_end additionally updates
   the job's labeled instruments so /metrics shows live progress. *)
let sink t =
  let emit e =
    (match e with
    | Telemetry.Epoch_end { executions; probes_covered; _ } ->
      Metrics.set t.jm_executions (float_of_int executions);
      Metrics.set t.jm_covered (float_of_int probes_covered);
      Metrics.inc t.jm_epochs
    | _ -> ());
    Mutex.lock t.ev_mutex;
    Queue.push (Telemetry.to_json ~seq:t.ev_seq e) t.ev_lines;
    t.ev_seq <- t.ev_seq + 1;
    if Queue.length t.ev_lines > max_event_lines then begin
      ignore (Queue.pop t.ev_lines);
      t.ev_dropped <- t.ev_dropped + 1
    end;
    Mutex.unlock t.ev_mutex
  in
  { Telemetry.emit; close = (fun () -> ()) }

let event_lines t =
  Mutex.lock t.ev_mutex;
  let lines = Queue.fold (fun acc l -> l :: acc) [] t.ev_lines in
  let dropped = t.ev_dropped in
  Mutex.unlock t.ev_mutex;
  (List.rev lines, dropped)

(* tail of the feed, for /debug/jobs — cheaper than hauling the whole
   bounded feed (up to 10k lines) through the router per request *)
let recent_event_lines ?(limit = 20) t =
  Mutex.lock t.ev_mutex;
  let n = Queue.length t.ev_lines in
  let skip = max 0 (n - limit) in
  let lines = ref [] in
  let i = ref 0 in
  Queue.iter
    (fun l ->
      if !i >= skip then lines := l :: !lines;
      incr i)
    t.ev_lines;
  Mutex.unlock t.ev_mutex;
  List.rev !lines

(* status document for GET /campaigns/:id — progress fields come from
   the snapshot the runner publishes after each epoch *)
let status_json t =
  let base =
    [
      ("id", Wire.Str t.jb_id);
      ("model", Wire.Str t.jb_model);
      ("tenant", Wire.Str t.jb_tenant);
      ("status", Wire.Str (status_name t.jb_status));
      ("spent_execs", Wire.Num (float_of_int t.jb_spent));
    ]
  in
  let progress =
    match t.jb_progress with
    | None -> []
    | Some p ->
      [
        ("epoch", Wire.Num (float_of_int p.Campaign.pg_epoch));
        ("executions", Wire.Num (float_of_int p.Campaign.pg_executions));
        ("probes_covered", Wire.Num (float_of_int p.Campaign.pg_probes_covered));
        ("probes_total", Wire.Num (float_of_int p.Campaign.pg_probes_total));
        ("corpus_size", Wire.Num (float_of_int p.Campaign.pg_corpus_size));
        ("worker_crashes", Wire.Num (float_of_int p.Campaign.pg_worker_crashes));
        ("plateaued", Wire.Bool (p.Campaign.pg_stop_reason = Some Campaign.Plateau));
        ("solver_rounds", Wire.Num (float_of_int p.Campaign.pg_solver_rounds));
      ]
      @
      (match p.Campaign.pg_stop_reason with
      | Some r -> [ ("stop_reason", Wire.Str (Campaign.stop_reason_string r)) ]
      | None -> [])
  in
  let outcome =
    match t.jb_status with
    | Done r ->
      [
        ("suite_size", Wire.Num (float_of_int (List.length r.Campaign.suite)));
        ("failures", Wire.Arr (List.map
             (fun (f : Cftcg_fuzz.Fuzzer.failure) -> Wire.Str f.Cftcg_fuzz.Fuzzer.f_message)
             r.Campaign.failures));
        ("resumed", Wire.Bool r.Campaign.resumed);
      ]
    | Failed msg -> [ ("error", Wire.Str msg) ]
    | _ -> []
  in
  Wire.Obj (base @ progress @ outcome)

let summary_json t =
  Wire.Obj
    [
      ("id", Wire.Str t.jb_id);
      ("model", Wire.Str t.jb_model);
      ("tenant", Wire.Str t.jb_tenant);
      ("status", Wire.Str (status_name t.jb_status));
    ]

(* GET /debug/jobs document: the status fields plus the scheduler
   internals the status endpoint hides (weight, deficit) and the tail
   of the event feed, re-parsed so the endpoint serves structured
   events rather than strings of JSON *)
let debug_json t =
  let events =
    List.filter_map
      (fun l -> match Wire.of_string l with v -> Some v | exception _ -> None)
      (recent_event_lines t)
  in
  let extra =
    [
      ("weight", Wire.Num (float_of_int t.jb_weight));
      ("deficit", Wire.Num (float_of_int t.jb_deficit));
      ("dropped_events", Wire.Num (float_of_int t.ev_dropped));
      ("recent_events", Wire.Arr events);
    ]
  in
  match status_json t with
  | Wire.Obj fields -> Wire.Obj (fields @ extra)
  | v -> v

(* The multi-tenant campaign scheduler behind [cftcg serve].

   Each submitted campaign gets a runner thread that steps the
   campaign epoch by epoch through {!Campaign.step}; what makes the
   daemon fair is that a runner may only start an epoch once the
   deficit round-robin arbiter grants it the executions the epoch
   wants. Every scheduling round credits each live job
   [quantum * weight] executions of deficit; a job whose accumulated
   deficit covers its next epoch runs it (charging the actual
   executions spent, so overruns carry over as debt), everyone else
   waits. A round advances only when no live job can proceed, so a
   cheap campaign cannot be starved while an expensive one is
   mid-epoch. Per-tenant execution budgets clip grants: once a
   tenant's budget is spent its jobs stop at the next epoch boundary —
   budgets are respected within one epoch's slack, never by killing a
   worker mid-run.

   Epoch parallelism is bounded by one shared {!Worker_pool}: a
   granted epoch still waits for pool slots before spawning its
   domains, so dozens of concurrent campaigns never oversubscribe the
   machine. Determinism is preserved because a grant always covers the
   full epoch: a campaign stepped under the scheduler performs exactly
   the epochs a solo [Campaign.run] would, in the same order, with the
   same per-(epoch, worker) seeds — only the wall-clock interleaving
   differs.

   Campaigns sharing a corpus directory share one open (sharded)
   {!Corpus_store} handle through a cache keyed by the directory, so
   their persistence goes through the same per-shard mutexes. *)

module Campaign = Cftcg_campaign.Campaign
module Telemetry = Cftcg_campaign.Telemetry
module Corpus_store = Cftcg_campaign.Corpus_store
module Worker_pool = Cftcg_campaign.Worker_pool
module Metrics = Cftcg_obs.Metrics
module Log = Cftcg_obs.Log
module Flight = Cftcg_obs.Flight

type tenant = {
  tn_name : string;
  mutable tn_budget : int option;  (* total execs allowed; None = unlimited *)
  mutable tn_spent : int;
}

type t = {
  pool : Worker_pool.t;
  quantum : int;
  mutex : Mutex.t;
  cond : Condition.t;
  jobs : (string, Job.t) Hashtbl.t;
  mutable order : string list;  (* submission order, newest first *)
  tenants : (string, tenant) Hashtbl.t;
  stores : (string, Corpus_store.t) Hashtbl.t;  (* by corpus dir *)
  mutable stopping : bool;
  mutable next_id : int;
  mutable waiting : int;  (* runners currently blocked in [next_grant] *)
  (* service-level counters, exported on /metrics *)
  sm_submitted : Metrics.counter;
  sm_completed : Metrics.counter;
  sm_failed : Metrics.counter;
  sm_cancelled : Metrics.counter;
  sm_running : Metrics.gauge;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let create ?(quantum = 1_000) ~pool () =
  if quantum < 1 then invalid_arg "Scheduler.create: quantum must be >= 1";
  {
    pool;
    quantum;
    mutex = Mutex.create ();
    cond = Condition.create ();
    jobs = Hashtbl.create 16;
    order = [];
    tenants = Hashtbl.create 8;
    stores = Hashtbl.create 8;
    stopping = false;
    next_id = 1;
    waiting = 0;
    sm_submitted = Metrics.counter ~help:"Campaigns submitted to the daemon" "cftcg_serve_campaigns_submitted_total";
    sm_completed = Metrics.counter ~help:"Campaigns that ran to completion" "cftcg_serve_campaigns_completed_total";
    sm_failed = Metrics.counter ~help:"Campaigns that failed" "cftcg_serve_campaigns_failed_total";
    sm_cancelled = Metrics.counter ~help:"Campaigns cancelled" "cftcg_serve_campaigns_cancelled_total";
    sm_running = Metrics.gauge ~help:"Campaigns currently queued or running" "cftcg_serve_campaigns_live";
  }

let pool t = t.pool

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
    let tn = { tn_name = name; tn_budget = None; tn_spent = 0 } in
    Hashtbl.replace t.tenants name tn;
    tn

let tenant_remaining tn =
  match tn.tn_budget with
  | None -> max_int
  | Some b -> max 0 (b - tn.tn_spent)

(* a job whose runner still participates in scheduling rounds *)
let live (j : Job.t) =
  (not (Job.terminal j.Job.jb_status)) && not j.Job.jb_cancel

let live_jobs t = Hashtbl.fold (fun _ j acc -> if live j then j :: acc else acc) t.jobs []

(* --- deficit round-robin arbiter ----------------------------------- *)

let advance_round t =
  List.iter (fun (j : Job.t) -> j.Job.jb_deficit <- j.Job.jb_deficit + (t.quantum * j.Job.jb_weight))
    (live_jobs t);
  Condition.broadcast t.cond

(* Blocks the calling runner until its job may run an epoch wanting
   [want] executions; returns the grant, or [None] when the job
   should stop (cancelled, daemon stopping, tenant budget spent). *)
let next_grant t (job : Job.t) ~want =
  locked t (fun () ->
      let rec loop () =
        if t.stopping || job.Job.jb_cancel then None
        else begin
          let tn = tenant_of t job.Job.jb_tenant in
          let left = tenant_remaining tn in
          if left = 0 then None
          else if want < 1 then Some 0
          else if job.Job.jb_deficit >= want || left < want then
            (* either the deficit covers the full epoch, or the
               tenant's budget remainder is smaller than an epoch —
               grant the remainder so the budget lands within one
               epoch's slack *)
            Some (min want left)
          else begin
            t.waiting <- t.waiting + 1;
            (* a round only advances when every live runner is blocked
               here: jobs mid-epoch still get their credit when the
               next round fires, but cannot trigger one *)
            if t.waiting >= List.length (live_jobs t) then advance_round t
            else Condition.wait t.cond t.mutex;
            t.waiting <- t.waiting - 1;
            loop ()
          end
        end
      in
      loop ())

let charge t (job : Job.t) spent =
  locked t (fun () ->
      job.Job.jb_deficit <- job.Job.jb_deficit - spent;
      job.Job.jb_spent <- job.Job.jb_spent + spent;
      (tenant_of t job.Job.jb_tenant).tn_spent <-
        (tenant_of t job.Job.jb_tenant).tn_spent + spent;
      Condition.broadcast t.cond)

let set_status t (job : Job.t) status =
  locked t (fun () ->
      (match (Job.terminal job.Job.jb_status, Job.terminal status) with
      | false, true ->
        Metrics.set t.sm_running (Metrics.gauge_value t.sm_running -. 1.0);
        Metrics.inc
          (match status with
          | Job.Done _ -> t.sm_completed
          | Job.Failed _ -> t.sm_failed
          | Job.Cancelled -> t.sm_cancelled
          | _ -> assert false)
      | _ -> ());
      job.Job.jb_status <- status;
      (* a job leaving the live set may unblock a scheduling round *)
      Condition.broadcast t.cond)

(* --- runner thread -------------------------------------------------- *)

(* what the next epoch will consume: the epoch-size ceiling clipped to
   the remaining global budget. An upper bound is enough — [step]
   re-derives the same value internally, so granting [want] never
   clips the epoch below what a solo run would do. *)
let epoch_want (job : Job.t) (pg : Campaign.progress) =
  let c = job.Job.jb_config in
  let jobs = max 1 c.Campaign.jobs in
  max 0 (min (c.Campaign.total_execs - pg.Campaign.pg_executions) (c.Campaign.execs_per_epoch * jobs))

let runner t (job : Job.t) () =
  (* the job id minted at submit is the correlation root: every log
     line and trace span below here inherits it *)
  Log.with_ctx [ ("job", job.Job.jb_id) ] @@ fun () ->
  let finish_with status =
    (match status with
    | Job.Done r ->
      Log.info "campaign done: %d execs, %d/%d probes" r.Campaign.executions
        r.Campaign.probes_covered r.Campaign.probes_total
    | Job.Failed msg ->
      Log.error "campaign failed: %s" msg;
      ignore
        (Flight.dump ~fields:[ ("job", job.Job.jb_id) ] ~reason:("job failed: " ^ msg) ())
    | Job.Cancelled -> Log.info "campaign cancelled"
    | _ -> ());
    set_status t job status
  in
  match Campaign.start ~config:job.Job.jb_config job.Job.jb_prog with
  | exception e -> finish_with (Job.Failed (Printexc.to_string e))
  | st -> (
    set_status t job Job.Running;
    job.Job.jb_progress <- Some (Campaign.progress st);
    let should_stop () = job.Job.jb_cancel || t.stopping in
    let rec loop () =
      if Campaign.finished st || should_stop () then ()
      else begin
        let want = epoch_want job (Campaign.progress st) in
        match next_grant t job ~want with
        | None -> ()
        | Some grant ->
          Log.debug "grant: %d execs (wanted %d, deficit %d)" grant want
            job.Job.jb_deficit;
          let spent = Campaign.step ~max_execs:grant ~should_stop ~pool:t.pool st in
          charge t job spent;
          job.Job.jb_progress <- Some (Campaign.progress st);
          loop ()
      end
    in
    match loop () with
    | () ->
      job.Job.jb_progress <- Some (Campaign.progress st);
      job.Job.jb_config.Campaign.sink.Telemetry.close ();
      if job.Job.jb_cancel || (t.stopping && not (Campaign.finished st)) then
        finish_with Job.Cancelled
      else finish_with (Job.Done (Campaign.finish st))
    | exception e ->
      job.Job.jb_config.Campaign.sink.Telemetry.close ();
      finish_with (Job.Failed (Printexc.to_string e)))

(* --- public API ------------------------------------------------------ *)

type submission = {
  sb_model : string;  (* informational label *)
  sb_tenant : string;
  sb_weight : int;
  sb_tenant_budget : int option;  (* set/overwrite the tenant's total budget *)
  sb_config : Campaign.config;  (* sink field is replaced by the job's feed sink *)
}

(* [on_salvage] hears the recovery actions of opening the store, so
   only the submission that opens it reports them *)
let store_for t dir ~on_salvage =
  match Hashtbl.find_opt t.stores dir with
  | Some s -> s
  | None ->
    let s = Corpus_store.open_ ~on_salvage dir in
    Hashtbl.replace t.stores dir s;
    s

let submit t (sub : submission) prog =
  locked t (fun () ->
      if t.stopping then Error "daemon is shutting down"
      else begin
        let id = Printf.sprintf "c%d" t.next_id in
        t.next_id <- t.next_id + 1;
        let tn = tenant_of t sub.sb_tenant in
        (match sub.sb_tenant_budget with
        | Some b -> tn.tn_budget <- Some b
        | None -> ());
        let job =
          Job.create ~id ~model:sub.sb_model ~tenant:sub.sb_tenant ~weight:sub.sb_weight
            ~config:sub.sb_config prog
        in
        let sink = Job.sink job in
        let on_salvage message =
          Log.with_ctx [ ("job", id) ] (fun () -> Telemetry.report sink (Salvage { message }))
        in
        (* campaigns sharing a corpus directory share one sharded
           store handle, so concurrent persists cooperate through the
           per-shard mutexes instead of racing through two handles *)
        let config =
          match sub.sb_config.Campaign.corpus_dir with
          | Some dir -> { sub.sb_config with Campaign.store = Some (store_for t dir ~on_salvage) }
          | None -> sub.sb_config
        in
        job.Job.jb_config <- { config with Campaign.sink; Campaign.job = Some id };
        Log.info
          ~fields:
            [ ("job", id); ("tenant", sub.sb_tenant); ("model", sub.sb_model) ]
          "campaign submitted: %d jobs, %d exec budget"
          config.Campaign.jobs config.Campaign.total_execs;
        Hashtbl.replace t.jobs id job;
        t.order <- id :: t.order;
        Metrics.inc t.sm_submitted;
        Metrics.set t.sm_running (Metrics.gauge_value t.sm_running +. 1.0);
        job.Job.jb_thread <- Some (Thread.create (runner t job) ());
        Ok id
      end)

let find t id = locked t (fun () -> Hashtbl.find_opt t.jobs id)

let jobs t =
  locked t (fun () -> List.rev t.order |> List.filter_map (Hashtbl.find_opt t.jobs))

let cancel t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> Error "no such campaign"
      | Some job ->
        if not (Job.terminal job.Job.jb_status) then begin
          job.Job.jb_cancel <- true;
          Condition.broadcast t.cond
        end;
        Ok job)

(* removing a terminal job record also retires its labeled series *)
let delete t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> Error `Not_found
      | Some job ->
        if Job.terminal job.Job.jb_status then begin
          Hashtbl.remove t.jobs id;
          t.order <- List.filter (fun i -> i <> id) t.order;
          Job.retire_metrics job;
          Ok `Deleted
        end
        else begin
          job.Job.jb_cancel <- true;
          Condition.broadcast t.cond;
          Ok `Cancelling
        end)

let shutdown t =
  let threads =
    locked t (fun () ->
        t.stopping <- true;
        Condition.broadcast t.cond;
        Hashtbl.fold (fun _ (j : Job.t) acc ->
            match j.Job.jb_thread with
            | Some th -> th :: acc
            | None -> acc)
          t.jobs [])
  in
  List.iter Thread.join threads;
  (* final manifest state is already on disk (campaigns persist every
     epoch); nothing to flush, but drop the store cache so a later
     scheduler re-opens fresh handles *)
  locked t (fun () -> Hashtbl.reset t.stores)

let stats_json t =
  locked t (fun () ->
      let njobs = Hashtbl.length t.jobs in
      let nlive = List.length (live_jobs t) in
      Wire.Obj
        [
          ("status", Wire.Str (if t.stopping then "stopping" else "ok"));
          ("jobs", Wire.Num (float_of_int njobs));
          ("live", Wire.Num (float_of_int nlive));
          ("pool_capacity", Wire.Num (float_of_int (Worker_pool.capacity t.pool)));
          ("pool_free", Wire.Num (float_of_int (Worker_pool.free t.pool)));
        ])

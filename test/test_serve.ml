(* Tests for the fuzzing-as-a-service layer: the wire formats, the
   shared worker pool, the deficit round-robin scheduler (determinism
   against solo campaigns, tenant budgets, cancellation), and the HTTP
   daemon end to end over a Unix-domain socket. *)

module Codegen = Cftcg_codegen.Codegen
module Campaign = Cftcg_campaign.Campaign
module Worker_pool = Cftcg_campaign.Worker_pool
module Telemetry = Cftcg_campaign.Telemetry
module Fault = Cftcg_util.Fault
module Models = Cftcg_bench_models.Bench_models
module Wire = Cftcg_serve.Wire
module Job = Cftcg_serve.Job
module Scheduler = Cftcg_serve.Scheduler
module Server = Cftcg_serve.Server
module Log = Cftcg_obs.Log
module Flight = Cftcg_obs.Flight

let solar_pv () =
  let e = Option.get (Models.find "SolarPV") in
  Codegen.lower ~mode:Codegen.Full (Lazy.force e.Models.model)

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

(* --- Wire: JSON ----------------------------------------------------- *)

let test_json_roundtrip () =
  let samples =
    [
      Wire.Null;
      Wire.Bool true;
      Wire.Num 42.0;
      Wire.Num (-3.5);
      Wire.Str "hello \"world\"\nline\ttab\\slash";
      Wire.Arr [ Wire.Num 1.0; Wire.Str "x"; Wire.Null ];
      Wire.Obj [ ("a", Wire.Num 1.0); ("nested", Wire.Obj [ ("b", Wire.Arr []) ]) ];
      Wire.Obj [];
      Wire.Arr [];
    ]
  in
  List.iter
    (fun j ->
      let s = Wire.to_string j in
      Alcotest.(check bool) (Printf.sprintf "roundtrip %s" s) true (Wire.of_string s = j))
    samples;
  (* ints survive without a decimal point *)
  Alcotest.(check string) "int print" "123" (Wire.to_string (Wire.Num 123.0));
  (* whitespace and \u escapes parse *)
  Alcotest.(check bool) "ws"  true
    (Wire.of_string "  { \"a\" : [ 1 , 2 ] }  " = Wire.Obj [ ("a", Wire.Arr [ Wire.Num 1.0; Wire.Num 2.0 ]) ]);
  Alcotest.(check bool) "unicode escape" true (Wire.of_string "\"\\u0041\"" = Wire.Str "A")

let test_json_errors () =
  let bad = [ ""; "{"; "[1,"; "{\"a\"}"; "nul"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Wire.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Wire.Parse_error _ -> ())
    bad;
  (* field accessors name the field *)
  let j = Wire.of_string "{\"n\":\"x\"}" in
  (match Wire.get_int "n" j with
  | _ -> Alcotest.fail "get_int on a string must raise"
  | exception Wire.Parse_error msg ->
    Alcotest.(check bool) "names field" true (String.length msg > 0))

(* nesting is bounded: max_depth levels parse, one more is a typed
   error, and a megabyte of open brackets fails at the bound instead
   of recursing through the whole body *)
let test_json_depth_bound () =
  let nest d opener closer = String.make d opener ^ String.make d closer in
  let objects d =
    String.concat "" (List.init d (fun _ -> "{\"a\":")) ^ "1" ^ String.make d '}'
  in
  List.iter
    (fun (what, at_bound, past_bound) ->
      (match Wire.of_string at_bound with
      | _ -> ()
      | exception Wire.Parse_error msg -> Alcotest.failf "%s at the bound refused: %s" what msg);
      match Wire.of_string past_bound with
      | _ -> Alcotest.failf "%s past the bound accepted" what
      | exception Wire.Parse_error _ -> ())
    [ ("arrays", nest Wire.max_depth '[' ']', nest (Wire.max_depth + 1) '[' ']');
      ("objects", objects Wire.max_depth, objects (Wire.max_depth + 1)) ];
  match Wire.of_string (String.make (1 lsl 20) '[') with
  | _ -> Alcotest.fail "1 MiB of brackets accepted"
  | exception Wire.Parse_error msg ->
    Alcotest.(check bool) ("names the bound: " ^ msg) true
      (String.length msg >= 7 && String.sub msg 0 7 = "nesting")

let test_json_qcheck =
  let open QCheck in
  (* integral numbers only: float text round-trips are a known
     non-goal of the compact printer *)
  let leaf =
    Gen.oneof
      [
        Gen.return Wire.Null;
        Gen.map (fun b -> Wire.Bool b) Gen.bool;
        Gen.map (fun n -> Wire.Num (float_of_int n)) Gen.int;
        Gen.map (fun s -> Wire.Str s) Gen.string_printable;
      ]
  in
  let value =
    Gen.sized (fun n ->
        Gen.fix
          (fun self n ->
            if n <= 0 then leaf
            else
              Gen.oneof
                [
                  leaf;
                  Gen.map (fun l -> Wire.Arr l) (Gen.list_size (Gen.int_bound 4) (self (n / 2)));
                  Gen.map
                    (fun kvs -> Wire.Obj kvs)
                    (Gen.list_size (Gen.int_bound 4)
                       (Gen.pair Gen.string_printable (self (n / 2))));
                ])
          (min n 6))
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"json print/parse roundtrip" ~count:200
       (make ~print:(fun j -> Wire.to_string j) value)
       (fun j -> Wire.of_string (Wire.to_string j) = j))

(* --- Wire: HTTP request framing ------------------------------------- *)

(* [Wire.read_request] over the raw bytes [raw] *)
let read_raw raw =
  let path = Filename.temp_file "cftcg_wire" ".http" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc raw);
      In_channel.with_open_bin path Wire.read_request)

let refused raw =
  match read_raw raw with
  | Some (Error e) -> Some (Wire.request_error_status e)
  | Some (Ok _) | None -> None

let test_request_framing () =
  (match read_raw "POST /campaigns HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody" with
  | Some (Ok rq) ->
    Alcotest.(check string) "method" "POST" rq.Wire.rq_method;
    Alcotest.(check string) "body" "body" rq.Wire.rq_body
  | _ -> Alcotest.fail "well-formed POST must parse");
  (match read_raw "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Some (Ok rq) -> Alcotest.(check string) "GET without length has no body" "" rq.Wire.rq_body
  | _ -> Alcotest.fail "GET without Content-Length must parse");
  (match read_raw "POST /c HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok" with
  | Some (Ok rq) -> Alcotest.(check string) "repeated equal length" "ok" rq.Wire.rq_body
  | _ -> Alcotest.fail "a repeated, equal Content-Length must parse");
  Alcotest.(check bool) "EOF before a request line" true (read_raw "" = None)

let test_request_bad_length () =
  let post len = Printf.sprintf "POST /campaigns HTTP/1.1\r\n%s\r\n{}" len in
  List.iter
    (fun (what, raw, status) ->
      Alcotest.(check (option int)) what (Some status) (refused raw))
    [
      ("missing on POST", post "", 400);
      ("non-numeric", post "Content-Length: abc\r\n", 400);
      ("hex", post "Content-Length: 0x2\r\n", 400);
      ("signed", post "Content-Length: +2\r\n", 400);
      ("negative", post "Content-Length: -1\r\n", 400);
      ("empty", post "Content-Length:\r\n", 400);
      ("conflicting", post "Content-Length: 2\r\nContent-Length: 3\r\n", 400);
      ("body shorter than declared", post "Content-Length: 10\r\n", 400);
      ("malformed request line", "GARBAGE\r\n\r\n", 400);
      ( "over max_body",
        post (Printf.sprintf "Content-Length: %d\r\n" (Wire.max_body + 1)),
        413 );
      ("beyond int range", post "Content-Length: 99999999999999999999999\r\n", 413);
    ]

let test_addr_parse () =
  (match Wire.addr_of_string "unix:/tmp/x.sock" with
  | Ok (Wire.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix: prefix");
  (match Wire.addr_of_string "/tmp/y.sock" with
  | Ok (Wire.Unix_path "/tmp/y.sock") -> ()
  | _ -> Alcotest.fail "bare path");
  (match Wire.addr_of_string "tcp:127.0.0.1:8080" with
  | Ok (Wire.Tcp ("127.0.0.1", 8080)) -> ()
  | _ -> Alcotest.fail "tcp host:port");
  (match Wire.addr_of_string "tcp:nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tcp without port must be rejected")

(* --- Worker pool ----------------------------------------------------- *)

let test_pool_basics () =
  let p = Worker_pool.create 3 in
  Alcotest.(check int) "capacity" 3 (Worker_pool.capacity p);
  Alcotest.(check int) "all free" 3 (Worker_pool.free p);
  Worker_pool.acquire p 2;
  Alcotest.(check int) "one left" 1 (Worker_pool.free p);
  Worker_pool.release p 2;
  Alcotest.(check int) "back to full" 3 (Worker_pool.free p);
  (match Worker_pool.create 0 with
  | _ -> Alcotest.fail "capacity 0 must be rejected"
  | exception Invalid_argument _ -> ());
  (match Worker_pool.acquire p 4 with
  | _ -> Alcotest.fail "over-capacity acquire must be rejected"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "default >= 1" true (Worker_pool.default_capacity () >= 1)

let test_pool_blocking () =
  let p = Worker_pool.create 2 in
  Worker_pool.acquire p 2;
  let acquired = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Worker_pool.acquire p 1;
        Atomic.set acquired true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "blocked while pool is empty" false (Atomic.get acquired);
  Worker_pool.release p 2;
  Thread.join th;
  Alcotest.(check bool) "woke after release" true (Atomic.get acquired);
  Worker_pool.release p 1

let test_pool_with_slots_exception () =
  let p = Worker_pool.create 1 in
  (match Worker_pool.with_slots p 1 (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "must re-raise"
  | exception Failure _ -> ());
  Alcotest.(check int) "slot released on exception" 1 (Worker_pool.free p)

(* --- Scheduler ------------------------------------------------------- *)

let base_config =
  { Campaign.default_config with
    Campaign.jobs = 2;
    total_execs = 800;
    execs_per_epoch = 200;
    (* keep everything on the virtual clock so results are
       byte-comparable between scheduled and solo runs *)
    stop_on_full = false
  }

let submission ?(tenant = "t") ?(weight = 1) ?tenant_budget ?(config = base_config) () =
  { Scheduler.sb_model = "SolarPV"; sb_tenant = tenant; sb_weight = weight;
    sb_tenant_budget = tenant_budget; sb_config = config }

let wait_terminal sched id =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec loop () =
    match Scheduler.find sched id with
    | None -> Alcotest.failf "job %s disappeared" id
    | Some job ->
      if Job.terminal job.Job.jb_status then job
      else if Unix.gettimeofday () > deadline then Alcotest.failf "job %s did not finish" id
      else begin
        Thread.delay 0.02;
        loop ()
      end
  in
  loop ()

let test_scheduler_matches_solo () =
  (* the acceptance bar for the daemon: campaigns multiplexed through
     the shared pool produce byte-identical results to solo runs *)
  let prog = solar_pv () in
  let n = 8 in
  let config_for i = { base_config with Campaign.seed = Int64.of_int (i + 1) } in
  let pool = Worker_pool.create 4 in
  let sched = Scheduler.create ~quantum:200 ~pool () in
  let ids =
    List.init n (fun i ->
        match Scheduler.submit sched (submission ~tenant:(Printf.sprintf "t%d" (i mod 3)) ~config:(config_for i) ()) prog with
        | Ok id -> id
        | Error msg -> Alcotest.failf "submit: %s" msg)
  in
  let served =
    List.map
      (fun id ->
        match (wait_terminal sched id).Job.jb_status with
        | Job.Done r -> r
        | s -> Alcotest.failf "job %s ended %s" id (Job.status_name s))
      ids
  in
  Scheduler.shutdown sched;
  List.iteri
    (fun i r ->
      let solo = Campaign.run ~config:(config_for i) prog in
      Alcotest.(check int) (Printf.sprintf "coverage %d" i) solo.Campaign.probes_covered
        r.Campaign.probes_covered;
      Alcotest.(check int) (Printf.sprintf "executions %d" i) solo.Campaign.executions
        r.Campaign.executions;
      Alcotest.(check (list bytes)) (Printf.sprintf "suite %d" i) solo.Campaign.suite
        r.Campaign.suite)
    served

let test_scheduler_tenant_budget () =
  let prog = solar_pv () in
  let pool = Worker_pool.create 2 in
  let sched = Scheduler.create ~quantum:200 ~pool () in
  let config = { base_config with Campaign.total_execs = 100_000 } in
  let budget = 900 in
  let id =
    match Scheduler.submit sched (submission ~tenant:"capped" ~tenant_budget:budget ~config ()) prog with
    | Ok id -> id
    | Error msg -> Alcotest.failf "submit: %s" msg
  in
  let job = wait_terminal sched id in
  Scheduler.shutdown sched;
  (* stops at an epoch boundary once the budget is spent: within one
     epoch's slack (epoch want = execs_per_epoch * jobs, plus the
     seed-corpus replay overrun) of the budget, far below total_execs *)
  let slack = (config.Campaign.execs_per_epoch * config.Campaign.jobs) + 200 in
  Alcotest.(check bool)
    (Printf.sprintf "spent %d within %d + %d" job.Job.jb_spent budget slack)
    true
    (job.Job.jb_spent <= budget + slack);
  Alcotest.(check bool) "far below the campaign budget" true (job.Job.jb_spent < 10_000);
  match job.Job.jb_status with
  | Job.Done _ -> ()
  | s -> Alcotest.failf "expected a partial Done, got %s" (Job.status_name s)

let test_scheduler_cancel () =
  let prog = solar_pv () in
  let pool = Worker_pool.create 2 in
  let sched = Scheduler.create ~quantum:100 ~pool () in
  (* a campaign that only a cancel can end: a huge budget and no
     plateau stop (SolarPV plateaus within a fraction of a second) *)
  let config =
    { base_config with
      Campaign.total_execs = 10_000_000;
      execs_per_epoch = 100;
      plateau_epochs = max_int
    }
  in
  let id =
    match Scheduler.submit sched (submission ~config ()) prog with
    | Ok id -> id
    | Error msg -> Alcotest.failf "submit: %s" msg
  in
  Thread.delay 0.1;
  (match Scheduler.cancel sched id with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "cancel: %s" msg);
  let job = wait_terminal sched id in
  (match job.Job.jb_status with
  | Job.Cancelled -> ()
  | s -> Alcotest.failf "expected Cancelled, got %s" (Job.status_name s));
  (* a terminal job deletes cleanly and retires its metric series *)
  (match Scheduler.delete sched id with
  | Ok `Deleted -> ()
  | Ok `Cancelling -> Alcotest.fail "job was already terminal"
  | Error `Not_found -> Alcotest.fail "job must still exist");
  Alcotest.(check bool) "gone" true (Scheduler.find sched id = None);
  Scheduler.shutdown sched

(* The status document's "plateaued" flag is read off the stop
   reason: true for a campaign that stopped on a plateau, false for
   one that spent its budget. *)
let test_scheduler_plateau_flag () =
  let prog = solar_pv () in
  let pool = Worker_pool.create 2 in
  let sched = Scheduler.create ~quantum:200 ~pool () in
  let status config =
    match Scheduler.submit sched (submission ~config ()) prog with
    | Ok id -> Job.status_json (wait_terminal sched id)
    | Error msg -> Alcotest.failf "submit: %s" msg
  in
  let plateau = status { base_config with Campaign.total_execs = 1_000_000; plateau_epochs = 1 } in
  let budget = status base_config in
  Scheduler.shutdown sched;
  let check label doc key want =
    Alcotest.(check bool) label true (Wire.member key doc = Some want)
  in
  check "plateau stop: plateaued" plateau "plateaued" (Wire.Bool true);
  check "plateau stop: stop_reason" plateau "stop_reason" (Wire.Str "plateau");
  check "budget stop: not plateaued" budget "plateaued" (Wire.Bool false);
  check "budget stop: budget spent" budget "spent_execs"
    (Wire.Num (float_of_int base_config.Campaign.total_execs))

let test_scheduler_worker_crash_degrades () =
  let prog = solar_pv () in
  let pool = Worker_pool.create 2 in
  let sched = Scheduler.create ~quantum:200 ~pool () in
  Fault.arm ~seed:7L [ (Fault.Worker_raise, Fault.Nth 1) ];
  let finally () = Fault.disarm () in
  Fun.protect ~finally (fun () ->
      let id =
        match Scheduler.submit sched (submission ()) prog with
        | Ok id -> id
        | Error msg -> Alcotest.failf "submit: %s" msg
      in
      let job = wait_terminal sched id in
      (match job.Job.jb_status with
      | Job.Done _ -> ()
      | s -> Alcotest.failf "crash must degrade, not %s" (Job.status_name s));
      let crashes =
        match job.Job.jb_progress with
        | Some p -> p.Campaign.pg_worker_crashes
        | None -> 0
      in
      Alcotest.(check bool) "crash recorded" true (crashes >= 1);
      let lines, _ = Job.event_lines job in
      Alcotest.(check bool) "worker_crash in the feed" true
        (List.exists (fun l ->
             match Wire.member "type" (Wire.of_string l) with
             | Some (Wire.Str "worker_crash") -> true
             | _ -> false)
           lines);
      Scheduler.shutdown sched)

(* A corrupt manifest in a submitted corpus directory is quarantined
   when the daemon opens the store; the feed of the job whose
   submission opened it reports the action, as [fuzz --corpus] does. *)
let test_scheduler_reports_store_salvage () =
  let dir = fresh_dir "cftcg_serve_salvage" in
  Unix.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "manifest") in
  output_string oc "not a manifest\n";
  close_out oc;
  let pool = Worker_pool.create 2 in
  let sched = Scheduler.create ~quantum:200 ~pool () in
  let config = { base_config with Campaign.corpus_dir = Some dir } in
  let id =
    match Scheduler.submit sched (submission ~config ()) (solar_pv ()) with
    | Ok id -> id
    | Error msg -> Alcotest.failf "submit: %s" msg
  in
  let job = wait_terminal sched id in
  let lines, _ = Job.event_lines job in
  let salvages =
    List.filter (fun l -> Wire.member "type" (Wire.of_string l) = Some (Wire.Str "salvage")) lines
  in
  Alcotest.(check int) "one salvage line for the quarantined manifest" 1 (List.length salvages);
  Scheduler.shutdown sched;
  rm_rf dir

(* --- HTTP daemon end to end ------------------------------------------ *)

let with_daemon ?read_deadline body =
  let sock = Filename.concat (Filename.get_temp_dir_name ()) "cftcg_test_serve.sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let prog = solar_pv () in
  let resolve = function
    | "solar" -> Ok prog
    | other -> Error (Printf.sprintf "unknown model %S" other)
  in
  let pool = Worker_pool.create 4 in
  let sched = Scheduler.create ~quantum:200 ~pool () in
  let stop = Atomic.make false in
  let addr = Wire.Unix_path sock in
  let server =
    Thread.create
      (fun () -> Server.serve ?read_deadline ~resolve ~sched ~stop:(fun () -> Atomic.get stop) addr)
      ()
  in
  (* wait for the listener *)
  let rec ready n =
    if n = 0 then Alcotest.fail "daemon did not come up";
    match Wire.http_request addr ~meth:"GET" ~path:"/healthz" () with
    | 200, _ -> ()
    | _ -> ready (n - 1)
    | exception Unix.Unix_error _ ->
      Thread.delay 0.05;
      ready (n - 1)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server)
    (fun () ->
      ready 100;
      body addr);
  Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists sock)

let request addr ~meth ~path ?body () = Wire.http_request addr ~meth ~path ?body ()

(* one hand-framed request; returns the response's status code *)
let raw_status addr raw =
  let fd = Wire.connect addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let oc = Unix.out_channel_of_descr fd in
      output_string oc raw;
      flush oc;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let ic = Unix.in_channel_of_descr fd in
      match String.split_on_char ' ' (input_line ic) with
      | _ :: code :: _ -> int_of_string code
      | _ -> Alcotest.fail "no status line")

let test_http_end_to_end () =
  with_daemon @@ fun addr ->
  (* bad submissions are 400s with a reason *)
  let status, body = request addr ~meth:"POST" ~path:"/campaigns" ~body:"{}" () in
  Alcotest.(check int) "missing model is a 400" 400 status;
  Alcotest.(check bool) "names the field" true (Wire.member "error" (Wire.of_string body) <> None);
  let status, _ = request addr ~meth:"POST" ~path:"/campaigns" ~body:"{\"model\":\"nope\"}" () in
  Alcotest.(check int) "unknown model is a 400" 400 status;
  (* a campaign that can never spend its budget is refused before it
     is queued, not left to hold a worker slot *)
  let status, body =
    request addr ~meth:"POST" ~path:"/campaigns"
      ~body:"{\"model\":\"solar\",\"execs_per_epoch\":0,\"plateau_epochs\":1000000000}" ()
  in
  Alcotest.(check int) "an empty epoch is a 400" 400 status;
  Alcotest.(check string) "names the setting" "execs_per_epoch must be >= 1"
    (Wire.get_string "error" (Wire.of_string body));
  let status, _ =
    request addr ~meth:"POST" ~path:"/campaigns"
      ~body:"{\"model\":\"solar\",\"hybrid\":true,\"solver_rounds\":-1}" ()
  in
  Alcotest.(check int) "negative solver rounds is a 400" 400 status;
  let _, body = request addr ~meth:"GET" ~path:"/campaigns" () in
  Alcotest.(check bool) "nothing was queued" true (Wire.of_string body = Wire.Arr []);
  let status, _ = request addr ~meth:"GET" ~path:"/campaigns/c999" () in
  Alcotest.(check int) "unknown id is a 404" 404 status;
  (* bad framing is refused before routing *)
  Alcotest.(check int) "non-numeric Content-Length is a 400" 400
    (raw_status addr "POST /campaigns HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n{}");
  Alcotest.(check int) "POST without Content-Length is a 400" 400
    (raw_status addr "POST /campaigns HTTP/1.1\r\n\r\n");
  Alcotest.(check int) "oversized body is a 413" 413
    (raw_status addr
       (Printf.sprintf "POST /campaigns HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
          (Wire.max_body + 1)));
  (* submit and run to completion *)
  let submit_body =
    Wire.to_string
      (Wire.Obj
         [
           ("model", Wire.Str "solar");
           ("seed", Wire.Num 3.0);
           ("jobs", Wire.Num 2.0);
           ("total_execs", Wire.Num 800.0);
           ("execs_per_epoch", Wire.Num 200.0);
         ])
  in
  let status, body = request addr ~meth:"POST" ~path:"/campaigns" ~body:submit_body () in
  Alcotest.(check int) "submission accepted" 201 status;
  let id = Wire.get_string "id" (Wire.of_string body) in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec poll () =
    let status, body = request addr ~meth:"GET" ~path:("/campaigns/" ^ id) () in
    Alcotest.(check int) "status readable" 200 status;
    let doc = Wire.of_string body in
    match Wire.get_string "status" doc with
    | "done" -> doc
    | "failed" -> Alcotest.failf "campaign failed: %s" body
    | _ ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "campaign did not finish";
      Thread.delay 0.05;
      poll ()
  in
  let doc = poll () in
  Alcotest.(check bool) "covered something" true (Wire.get_int "probes_covered" doc > 0);
  (* events feed is JSONL with an epoch_end *)
  let status, feed = request addr ~meth:"GET" ~path:("/campaigns/" ^ id ^ "/events") () in
  Alcotest.(check int) "events readable" 200 status;
  let lines = String.split_on_char '\n' feed |> List.filter (fun l -> l <> "") in
  Alcotest.(check bool) "feed not empty" true (lines <> []);
  Alcotest.(check bool) "feed has epoch_end" true
    (List.exists (fun l ->
         match Wire.member "type" (Wire.of_string l) with
         | Some (Wire.Str "epoch_end") -> true
         | _ -> false)
       lines);
  (* live metrics scrape shows the service and per-job series *)
  let status, metrics = request addr ~meth:"GET" ~path:"/metrics" () in
  Alcotest.(check int) "metrics readable" 200 status;
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "service counters exported" true
    (has "cftcg_serve_campaigns_submitted_total" metrics);
  Alcotest.(check bool) "per-job series exported" true
    (has ("cftcg_serve_job_executions{job=\"" ^ id ^ "\"}") metrics);
  (* listing, then delete the terminal record *)
  let status, listing = request addr ~meth:"GET" ~path:"/campaigns" () in
  Alcotest.(check int) "listing readable" 200 status;
  (match Wire.of_string listing with
  | Wire.Arr (_ :: _) -> ()
  | _ -> Alcotest.fail "listing must be a non-empty array");
  let status, _ = request addr ~meth:"DELETE" ~path:("/campaigns/" ^ id) () in
  Alcotest.(check int) "terminal delete is a 200" 200 status;
  let status, _ = request addr ~meth:"GET" ~path:("/campaigns/" ^ id) () in
  Alcotest.(check int) "deleted record is gone" 404 status;
  (* the per-job series left the registry with the record *)
  let _, metrics = request addr ~meth:"GET" ~path:"/metrics" () in
  Alcotest.(check bool) "per-job series retired" false
    (has ("cftcg_serve_job_executions{job=\"" ^ id ^ "\"}") metrics)

let test_http_deep_nesting_refused () =
  with_daemon @@ fun addr ->
  let t0 = Unix.gettimeofday () in
  let status, body =
    request addr ~meth:"POST" ~path:"/campaigns" ~body:(String.make (1 lsl 20) '[') ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "1 MiB of nested brackets is a 400" 400 status;
  let reason = Wire.get_string "error" (Wire.of_string body) in
  Alcotest.(check bool) ("the reply names the nesting bound: " ^ reason) true
    (String.length reason >= 7 && String.sub reason 0 7 = "nesting");
  Alcotest.(check bool) (Printf.sprintf "answered quickly (%.2f s)" elapsed) true (elapsed < 5.0);
  (* the daemon is still serving *)
  let status, _ = request addr ~meth:"GET" ~path:"/healthz" () in
  Alcotest.(check int) "still healthy" 200 status

(* a connection that never finishes its request line is answered 408
   and closed at the read deadline, and one left open across shutdown
   delays the daemon's stop by at most that deadline *)
let test_http_read_deadline () =
  let deadline = 0.3 in
  let half_request addr =
    let fd = Wire.connect addr in
    let oc = Unix.out_channel_of_descr fd in
    output_string oc "GET /heal";
    flush oc;
    fd
  in
  (* the status line the daemon sends before closing, 0 if it closes
     without one; a watchdog closes the socket should the daemon
     never answer, so a regression fails instead of hanging *)
  let answer fd =
    let ic = Unix.in_channel_of_descr fd in
    match input_line ic with
    | line -> (
      match String.split_on_char ' ' line with
      | _ :: code :: _ -> int_of_string code
      | _ -> 0)
    | exception (End_of_file | Sys_error _) -> 0
  in
  let watchdog fd =
    Thread.create
      (fun () ->
        Thread.delay 10.0;
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      ()
  in
  let lingering = ref None in
  let t_stop = ref 0.0 in
  with_daemon ~read_deadline:deadline (fun addr ->
      let fd = half_request addr in
      ignore (watchdog fd);
      let t0 = Unix.gettimeofday () in
      let status = answer fd in
      let elapsed = Unix.gettimeofday () -. t0 in
      Unix.close fd;
      Alcotest.(check int) "a silent client is answered 408" 408 status;
      Alcotest.(check bool)
        (Printf.sprintf "dropped at the deadline (%.2f s)" elapsed)
        true
        (elapsed >= deadline *. 0.5 && elapsed < deadline +. 2.0);
      let status, _ = request addr ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "still serving" 200 status;
      (* leave one silent connection open across shutdown *)
      let fd = half_request addr in
      ignore (watchdog fd);
      Thread.delay 0.05;
      lingering := Some fd;
      t_stop := Unix.gettimeofday ());
  let stop_s = Unix.gettimeofday () -. !t_stop in
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !lingering;
  Alcotest.(check bool) (Printf.sprintf "stopped promptly (%.2f s)" stop_s) true (stop_s < 3.0)

let test_http_shared_corpus () =
  (* two campaigns naming the same corpus directory share one sharded
     store handle; the result must pass fsck with zero findings *)
  let dir = fresh_dir "cftcg_serve_shared_corpus" in
  with_daemon (fun addr ->
      let submit seed =
        let body =
          Wire.to_string
            (Wire.Obj
               [
                 ("model", Wire.Str "solar");
                 ("seed", Wire.Num (float_of_int seed));
                 ("jobs", Wire.Num 2.0);
                 ("total_execs", Wire.Num 600.0);
                 ("execs_per_epoch", Wire.Num 200.0);
                 ("corpus_dir", Wire.Str dir);
               ])
        in
        let status, rbody = request addr ~meth:"POST" ~path:"/campaigns" ~body () in
        Alcotest.(check int) "accepted" 201 status;
        Wire.get_string "id" (Wire.of_string rbody)
      in
      let ids = List.map submit [ 1; 2; 3; 4 ] in
      let deadline = Unix.gettimeofday () +. 90.0 in
      let rec wait id =
        let _, body = request addr ~meth:"GET" ~path:("/campaigns/" ^ id) () in
        match Wire.get_string "status" (Wire.of_string body) with
        | "done" -> ()
        | "failed" -> Alcotest.failf "campaign %s failed: %s" id body
        | _ ->
          if Unix.gettimeofday () > deadline then Alcotest.fail "campaigns did not finish";
          Thread.delay 0.05;
          wait id
      in
      List.iter wait ids);
  let module Store = Cftcg_campaign.Corpus_store in
  let report = Store.fsck dir in
  Alcotest.(check (list string)) "fsck clean" [] report.Store.fsck_quarantined;
  Alcotest.(check int) "no orphans" 0 report.Store.fsck_orphans;
  Alcotest.(check bool) "entries persisted" true (report.Store.fsck_entries > 0)

(* --- debug endpoints + end-to-end correlation ------------------------ *)

let test_http_debug_and_correlation () =
  (* two concurrent campaigns with debug logging into the flight ring:
     every grant/epoch/worker log entry must carry the job id it
     belongs to, the two ids must never cross-contaminate, and the
     /debug endpoints must expose the state *)
  Log.set_level (Some Log.Debug);
  Flight.set_enabled true;
  Flight.clear ();
  Fun.protect
    ~finally:(fun () ->
      Log.set_level None;
      Flight.set_enabled false;
      Flight.clear ())
  @@ fun () ->
  with_daemon @@ fun addr ->
  let submit seed =
    let body =
      Wire.to_string
        (Wire.Obj
           [
             ("model", Wire.Str "solar");
             ("seed", Wire.Num (float_of_int seed));
             ("jobs", Wire.Num 2.0);
             ("total_execs", Wire.Num 600.0);
             ("execs_per_epoch", Wire.Num 200.0);
           ])
    in
    let status, rbody = request addr ~meth:"POST" ~path:"/campaigns" ~body () in
    Alcotest.(check int) "accepted" 201 status;
    Wire.get_string "id" (Wire.of_string rbody)
  in
  let id1 = submit 1 in
  let id2 = submit 2 in
  let deadline = Unix.gettimeofday () +. 90.0 in
  let rec wait id =
    let _, body = request addr ~meth:"GET" ~path:("/campaigns/" ^ id) () in
    match Wire.get_string "status" (Wire.of_string body) with
    | "done" -> ()
    | "failed" -> Alcotest.failf "campaign %s failed: %s" id body
    | _ ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "campaigns did not finish";
      Thread.delay 0.05;
      wait id
  in
  wait id1;
  wait id2;
  (* /debug/jobs exposes scheduler internals and the event feed tail *)
  let status, body = request addr ~meth:"GET" ~path:"/debug/jobs" () in
  Alcotest.(check int) "debug jobs readable" 200 status;
  (match Wire.of_string body with
  | Wire.Arr jobs ->
    Alcotest.(check int) "both jobs listed" 2 (List.length jobs);
    List.iter
      (fun j ->
        Alcotest.(check bool) "has deficit" true (Wire.member "deficit" j <> None);
        Alcotest.(check bool) "has weight" true (Wire.member "weight" j <> None);
        match Wire.member "recent_events" j with
        | Some (Wire.Arr (_ :: _)) -> ()
        | _ -> Alcotest.fail "recent_events must be a non-empty array")
      jobs
  | _ -> Alcotest.fail "debug jobs must be an array");
  (* /debug/log serves the ring tail *)
  let status, body = request addr ~meth:"GET" ~path:"/debug/log" () in
  Alcotest.(check int) "debug log readable" 200 status;
  let dbg = Wire.of_string body in
  Alcotest.(check bool) "recorder on" true (Wire.member "enabled" dbg = Some (Wire.Bool true));
  (match Wire.member "entries" dbg with
  | Some (Wire.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "entries must be non-empty");
  let status, _ = request addr ~meth:"POST" ~path:"/debug/log" () in
  Alcotest.(check int) "debug is GET-only" 405 status;
  (* correlation: the daemon runs in-process, so the flight ring holds
     its log lines. Every job-tagged entry names one of the two ids. *)
  let entries = Flight.recent ~limit:1000 () in
  let tagged =
    List.filter_map (fun e -> List.assoc_opt "job" e.Flight.fl_fields) entries
  in
  Alcotest.(check bool) "job-tagged entries exist" true (tagged <> []);
  List.iter
    (fun j ->
      Alcotest.(check bool) (Printf.sprintf "unknown job id %s" j) true (j = id1 || j = id2))
    tagged;
  Alcotest.(check bool) "first job present" true (List.mem id1 tagged);
  Alcotest.(check bool) "second job present" true (List.mem id2 tagged);
  (* the whole pipeline is tagged: scheduler grants, epochs, workers
     and the completion line each carry the job id *)
  let has_msg_for id prefix =
    List.exists
      (fun e ->
        List.assoc_opt "job" e.Flight.fl_fields = Some id
        && String.length e.Flight.fl_msg >= String.length prefix
        && String.sub e.Flight.fl_msg 0 (String.length prefix) = prefix)
      entries
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " grant tagged") true (has_msg_for id "grant:");
      Alcotest.(check bool) (id ^ " epoch tagged") true (has_msg_for id "epoch");
      Alcotest.(check bool) (id ^ " worker tagged") true (has_msg_for id "worker");
      Alcotest.(check bool) (id ^ " completion tagged") true (has_msg_for id "campaign done:"))
    [ id1; id2 ];
  (* no swap: the campaign-start line of each job names its own seed *)
  let start_of id =
    List.find_map
      (fun e ->
        if
          List.assoc_opt "job" e.Flight.fl_fields = Some id
          && String.length e.Flight.fl_msg >= 14
          && String.sub e.Flight.fl_msg 0 14 = "campaign start"
        then Some e.Flight.fl_msg
        else None)
      entries
  in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (match (start_of id1, start_of id2) with
  | Some s1, Some s2 ->
    Alcotest.(check bool) "job1 started with seed 1" true (contains "seed 1" s1);
    Alcotest.(check bool) "job2 started with seed 2" true (contains "seed 2" s2)
  | _ -> Alcotest.fail "both campaign-start lines must be tagged")

let suites =
  [
    ( "serve.wire",
      [
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json errors" `Quick test_json_errors;
        Alcotest.test_case "json nesting depth bounded" `Quick test_json_depth_bound;
        test_json_qcheck;
        Alcotest.test_case "addr parse" `Quick test_addr_parse;
        Alcotest.test_case "request framing" `Quick test_request_framing;
        Alcotest.test_case "bad Content-Length refused" `Quick test_request_bad_length;
      ] );
    ( "serve.pool",
      [
        Alcotest.test_case "basics" `Quick test_pool_basics;
        Alcotest.test_case "blocking acquire" `Quick test_pool_blocking;
        Alcotest.test_case "with_slots exception" `Quick test_pool_with_slots_exception;
      ] );
    ( "serve.scheduler",
      [
        Alcotest.test_case "matches solo campaigns" `Slow test_scheduler_matches_solo;
        Alcotest.test_case "tenant budget" `Slow test_scheduler_tenant_budget;
        Alcotest.test_case "cancel and delete" `Slow test_scheduler_cancel;
        Alcotest.test_case "worker crash degrades" `Slow test_scheduler_worker_crash_degrades;
        Alcotest.test_case "store salvage on the job feed" `Slow
          test_scheduler_reports_store_salvage;
        Alcotest.test_case "plateaued follows the stop reason" `Slow test_scheduler_plateau_flag;
      ] );
    ( "serve.http",
      [
        Alcotest.test_case "end to end" `Slow test_http_end_to_end;
        Alcotest.test_case "deeply nested body refused" `Slow test_http_deep_nesting_refused;
        Alcotest.test_case "shared sharded corpus" `Slow test_http_shared_corpus;
        Alcotest.test_case "read deadline" `Slow test_http_read_deadline;
        Alcotest.test_case "debug endpoints + correlation" `Slow
          test_http_debug_and_correlation;
      ] );
  ]

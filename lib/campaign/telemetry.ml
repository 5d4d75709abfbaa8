type event =
  | Exec_batch of { worker : int; epoch : int; executions : int; iterations : int; probes_covered : int }
  | New_probe of { worker : int; epoch : int; probes : int; executions : int }
  | Corpus_sync of { epoch : int; candidates : int; kept : int; probes_covered : int }
  | Epoch_end of { epoch : int; executions : int; probes_covered : int; probes_total : int; corpus_size : int }
  | Plateau of { epoch : int; stalled_epochs : int }
  | Solver_phase of { epoch : int; round : int; targets : int; stalled_epochs : int; budget : int; shards : int }
  | Solver_done of {
      epoch : int; round : int; targets : int; solved : int; executions : int; probes_covered : int;
      slowest_shard_executions : int }
  | Dead_workers of { epoch : int; dead_epochs : int }
  | Failure of { worker : int; epoch : int; message : string }
  | Worker_crash of { worker : int; epoch : int; message : string }
  | Salvage of { message : string }

type sink = {
  emit : event -> unit;
  close : unit -> unit;
}

let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

(* Sinks receive events concurrently from worker domains; every
   constructor below serializes its [emit] behind one mutex. [close]
   shares the mutex and runs the underlying close at most once, so
   every constructed sink is close-idempotent. *)
let serialized emit close =
  let m = Mutex.create () in
  let closed = ref false in
  let guard f x =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f x)
  in
  let close_once () =
    if not !closed then begin
      closed := true;
      close ()
    end
  in
  { emit = guard emit; close = (fun () -> guard close_once ()) }

let multi sinks =
  let close () =
    (* close every sink even if one raises; re-raise the first error *)
    let first = ref None in
    List.iter
      (fun s ->
        try s.close () with
        | e -> (
          match !first with
          | None -> first := Some e
          | Some _ -> ()))
      sinks;
    match !first with
    | Some e -> raise e
    | None -> ()
  in
  serialized (fun e -> List.iter (fun s -> s.emit e) sinks) close

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* An event's JSONL type and its fields. *)
let encode = function
  | Exec_batch { worker; epoch; executions; iterations; probes_covered } ->
    ( "exec_batch",
      [ ("worker", `I worker); ("epoch", `I epoch); ("executions", `I executions);
        ("iterations", `I iterations); ("probes_covered", `I probes_covered) ] )
  | New_probe { worker; epoch; probes; executions } ->
    ( "new_probe",
      [ ("worker", `I worker); ("epoch", `I epoch); ("probes", `I probes);
        ("executions", `I executions) ] )
  | Corpus_sync { epoch; candidates; kept; probes_covered } ->
    ( "corpus_sync",
      [ ("epoch", `I epoch); ("candidates", `I candidates); ("kept", `I kept);
        ("probes_covered", `I probes_covered) ] )
  | Epoch_end { epoch; executions; probes_covered; probes_total; corpus_size } ->
    ( "epoch_end",
      [ ("epoch", `I epoch); ("executions", `I executions); ("probes_covered", `I probes_covered);
        ("probes_total", `I probes_total); ("corpus_size", `I corpus_size) ] )
  | Plateau { epoch; stalled_epochs } ->
    ("plateau", [ ("epoch", `I epoch); ("stalled_epochs", `I stalled_epochs) ])
  | Solver_phase { epoch; round; targets; stalled_epochs; budget; shards } ->
    ( "solver_phase",
      [ ("epoch", `I epoch); ("round", `I round); ("targets", `I targets);
        ("stalled_epochs", `I stalled_epochs); ("budget", `I budget); ("shards", `I shards) ] )
  | Solver_done { epoch; round; targets; solved; executions; probes_covered; slowest_shard_executions }
    ->
    ( "solver_done",
      [ ("epoch", `I epoch); ("round", `I round); ("targets", `I targets); ("solved", `I solved);
        ("executions", `I executions); ("probes_covered", `I probes_covered);
        ("slowest_shard_executions", `I slowest_shard_executions) ] )
  | Dead_workers { epoch; dead_epochs } ->
    ("dead_workers", [ ("epoch", `I epoch); ("dead_epochs", `I dead_epochs) ])
  | Failure { worker; epoch; message } ->
    ("failure", [ ("worker", `I worker); ("epoch", `I epoch); ("message", `S message) ])
  | Worker_crash { worker; epoch; message } ->
    ("worker_crash", [ ("worker", `I worker); ("epoch", `I epoch); ("message", `S message) ])
  | Salvage { message } -> ("salvage", [ ("message", `S message) ])

let to_json ?seq e =
  let ty, fields = encode e in
  let fields = ("type", `S ty) :: fields in
  let fields =
    match seq with
    | Some n -> ("seq", `I n) :: fields
    | None -> fields
  in
  let cell (k, v) =
    Printf.sprintf "%S:%s" k
      (match v with
      | `I n -> string_of_int n
      | `S s -> "\"" ^ json_escape s ^ "\"")
  in
  "{" ^ String.concat "," (List.map cell fields) ^ "}"

let ring ?(capacity = 4096) () =
  let buf = Array.make capacity None in
  let next = ref 0 in
  let emit e =
    buf.(!next mod capacity) <- Some e;
    incr next
  in
  let sink = serialized emit (fun () -> ()) in
  let contents () =
    (* oldest first; a full ring keeps the latest [capacity] events *)
    let n = !next in
    let first = max 0 (n - capacity) in
    List.filter_map (fun i -> buf.(i mod capacity)) (List.init (n - first) (fun k -> first + k))
  in
  (sink, contents)

(* newline count of an existing file — resumes the seq counter when a
   campaign appends to its previous event log *)
let count_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        !n)

let jsonl ?(append = false) ?max_bytes path =
  (match max_bytes with
  | Some m when m < 1 -> invalid_arg "Telemetry.jsonl: max_bytes must be >= 1"
  | _ -> ());
  let rotated n = path ^ "." ^ string_of_int n in
  (* a fresh (non-append) feed owns the whole chain: drop rotations
     left behind by a previous run so old events cannot resurface *)
  if (not append) && max_bytes <> None then begin
    let n = ref 1 in
    while Sys.file_exists (rotated !n) do
      (try Sys.remove (rotated !n) with Sys_error _ -> ());
      incr n
    done
  end;
  (* resume the seq counter across the whole chain so it stays
     monotonic even after rotations *)
  let seq =
    ref
      (if append then begin
         let total = ref (count_lines path) in
         let n = ref 1 in
         while Sys.file_exists (rotated !n) do
           total := !total + count_lines (rotated !n);
           incr n
         done;
         !total
       end
       else 0)
  in
  let open_current () =
    if append then open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
    else open_out path
  in
  let oc = ref (open_current ()) in
  let bytes =
    ref
      (if append then (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
       else 0)
  in
  (* close durably: a campaign result is only as trustworthy as its
     telemetry trail, so the feed must survive a power cut that
     happens right after the process exits *)
  let close_current () =
    flush !oc;
    (try Unix.fsync (Unix.descr_of_out_channel !oc) with Unix.Unix_error _ -> ());
    close_out !oc
  in
  (* shift path.N -> path.N+1 (highest first), then path -> path.1 and
     reopen; the durable close keeps rotated segments as trustworthy
     as a final one *)
  let rotate () =
    close_current ();
    let last = ref 0 in
    while Sys.file_exists (rotated (!last + 1)) do
      incr last
    done;
    for i = !last downto 1 do
      Sys.rename (rotated i) (rotated (i + 1))
    done;
    Sys.rename path (rotated 1);
    oc := open_out path;
    bytes := 0
  in
  let emit e =
    let line = to_json ~seq:!seq e in
    output_string !oc line;
    output_char !oc '\n';
    incr seq;
    bytes := !bytes + String.length line + 1;
    match max_bytes with
    | Some m when !bytes >= m -> rotate ()
    | _ -> ()
  in
  serialized emit close_current

(* One human-readable line per event: the text of its log line and
   of its progress-display line. *)
let describe = function
  | Exec_batch { worker; executions; probes_covered; _ } ->
    Printf.sprintf "worker %d: %d execs, %d probes covered" worker executions probes_covered
  | New_probe { worker; probes; executions; _ } ->
    Printf.sprintf "worker %d: input at exec %d lit %d new probes" worker executions probes
  | Corpus_sync { candidates; kept; probes_covered; _ } ->
    Printf.sprintf "merge: %d candidates, corpus %d, %d probes covered" candidates kept
      probes_covered
  | Epoch_end { epoch; executions; probes_covered; probes_total; corpus_size } ->
    Printf.sprintf "epoch %d: %d execs, %d/%d probes, corpus %d" epoch executions probes_covered
      probes_total corpus_size
  | Plateau { epoch; stalled_epochs } ->
    Printf.sprintf "plateau: no new coverage for %d epochs (stopping at epoch %d)" stalled_epochs
      epoch
  | Solver_phase { epoch; round; targets; stalled_epochs; budget; shards } ->
    Printf.sprintf
      "solver phase %d: %d uncovered targets (plateau after %d epochs, at epoch %d), %d exec \
       budget, %d shard(s)"
      round targets stalled_epochs epoch budget shards
  | Solver_done { round; targets; solved; executions; probes_covered; slowest_shard_executions; _ }
    ->
    Printf.sprintf
      "solver phase %d done: closed %d/%d targets in %d execs (%d covered, slowest shard %d \
       execs)"
      round solved targets executions probes_covered slowest_shard_executions
  | Dead_workers { epoch; dead_epochs } ->
    Printf.sprintf "DEAD WORKERS: %d epochs without a surviving worker (stopping at epoch %d)"
      dead_epochs epoch
  | Failure { worker; message; _ } -> Printf.sprintf "FAILURE (worker %d): %s" worker message
  | Worker_crash { worker; message; _ } ->
    Printf.sprintf "WORKER CRASH (worker %d): %s" worker message
  | Salvage { message } -> "salvage: " ^ message

module Metrics = Cftcg_obs.Metrics
module Log = Cftcg_obs.Log

let counter name help = Metrics.counter ~help ("cftcg_campaign_" ^ name ^ "_total")
let epochs = counter "epochs" "Completed campaign epochs"
let new_probes = counter "new_probe_events" "Worker inputs that lit new probes"
let syncs = counter "corpus_syncs" "Coordinator corpus merges"
let failures = counter "failures" "Assertion failures observed"
let plateaus = counter "plateaus" "Early stops due to a coverage plateau"
let crashes = counter "worker_crashes" "Worker domains that raised and were salvaged"
let salvages = counter "salvage_events" "Corpus-store recovery actions"
let solver_phases = counter "solver_phases" "Hybrid solver phases started"
let solver_solved = counter "solver_solved" "Probes the hybrid solver phases closed"
let solver_execs = counter "solver_executions" "Executions spent inside hybrid solver phases"
let dead_stops = counter "dead_worker_stops" "Campaigns stopped after consecutive dead epochs"

(* Bumps the event's campaign counter and returns the level of its log
   line; worker heartbeats and discoveries are too frequent to log. *)
let count = function
  | Exec_batch _ -> None
  | New_probe _ -> Metrics.inc new_probes; None
  | Corpus_sync _ -> Metrics.inc syncs; Some Log.Debug
  | Epoch_end _ -> Metrics.inc epochs; Some Log.Info
  | Plateau _ -> Metrics.inc plateaus; Some Log.Info
  | Solver_phase _ -> Metrics.inc solver_phases; Some Log.Info
  | Solver_done { solved; executions; _ } ->
    Metrics.add solver_solved solved; Metrics.add solver_execs executions; Some Log.Info
  | Dead_workers _ -> Metrics.inc dead_stops; Some Log.Error
  | Failure _ -> Metrics.inc failures; Some Log.Warn
  | Worker_crash _ -> Metrics.inc crashes; Some Log.Error
  | Salvage _ -> Metrics.inc salvages; Some Log.Warn

let report sink e =
  (match count e with
  | Some level when Log.enabled level ->
    let worker =
      match e with
      | Failure { worker; _ } | Worker_crash { worker; _ } -> [ ("worker", string_of_int worker) ]
      | _ -> []
    in
    Log.logf level ~fields:(("event", fst (encode e)) :: worker) "%s" (describe e)
  | _ -> ());
  sink.emit e

let series_bridge series =
  let start = Unix.gettimeofday () in
  let emit = function
    | Epoch_end { executions; probes_covered; _ } ->
      Cftcg_obs.Series.record series
        ~time:(Unix.gettimeofday () -. start)
        ~execs:executions ~covered:probes_covered
    | _ -> ()
  in
  serialized emit (fun () -> ())

let progress oc =
  let line = ref false in
  let emit = function
    | New_probe _ | Corpus_sync _ -> ()
    | e ->
      (* a heartbeat overwrites the line; every other event commits it *)
      line := (match e with Exec_batch _ -> true | _ -> false);
      Printf.fprintf oc "\r%-78s%s%!" ("  " ^ describe e) (if !line then "" else "\n")
  in
  serialized emit (fun () -> if !line then Printf.fprintf oc "\n%!")

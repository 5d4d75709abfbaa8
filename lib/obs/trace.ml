type event = {
  ev_name : string;
  ev_ts_us : float;
  ev_dur_us : float;
  ev_tid : int;
  ev_instant : bool;
  ev_args : (string * string) list;
}

(* Enabled is read on every with_span call site, including ones
   reached from fuzzing hot paths — keep it one atomic load. *)
let flag = Atomic.make false

let mutex = Mutex.create ()
let buffer : event list ref = ref []  (* newest first *)
let epoch : float option ref = ref None

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let now () = Unix.gettimeofday ()

let set_enabled b =
  (* anchor the epoch at enable time, not at the first record — spans
     record at span end, so a span entered before enabling would
     otherwise anchor the epoch and give earlier starts negative ts *)
  if b then begin
    Mutex.lock mutex;
    (match !epoch with
    | None -> epoch := Some (now ())
    | Some _ -> ());
    Mutex.unlock mutex
  end;
  Atomic.set flag b

let enabled () = Atomic.get flag

(* microseconds since the first recorded event (anchored lazily so a
   long-running process that enables tracing late starts near 0) *)
let rel_us t =
  match !epoch with
  | Some e -> (t -. e) *. 1e6
  | None ->
    epoch := Some t;
    0.0

let domain_id () = (Domain.self () :> int)

(* Append the ambient correlation context (job/worker/epoch ids from
   Log.with_ctx) to an event's args, without shadowing explicit keys. *)
let with_correlation args =
  match Log.ctx () with
  | [] -> args
  | ctx -> args @ List.filter (fun (k, _) -> not (List.mem_assoc k args)) ctx

let record_span name t0 args =
  let t1 = now () in
  let args = with_correlation args in
  locked (fun () ->
      let ts = rel_us t0 in
      buffer :=
        { ev_name = name; ev_ts_us = ts; ev_dur_us = (t1 -. t0) *. 1e6;
          ev_tid = domain_id (); ev_instant = false; ev_args = args }
        :: !buffer)

let with_span ?(args = []) name f =
  if not (Atomic.get flag) then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> record_span name t0 args) f
  end

let with_span_result ?(args = []) ~end_args name f =
  if not (Atomic.get flag) then f ()
  else begin
    let t0 = now () in
    match f () with
    | r ->
      record_span name t0 (args @ end_args r);
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record_span name t0 args;
      Printexc.raise_with_backtrace e bt
  end

let instant ?(args = []) name =
  if Atomic.get flag then begin
    let t = now () in
    let args = with_correlation args in
    locked (fun () ->
        let ts = rel_us t in
        buffer :=
          { ev_name = name; ev_ts_us = ts; ev_dur_us = 0.0; ev_tid = domain_id ();
            ev_instant = true; ev_args = args }
          :: !buffer)
  end

let events () = locked (fun () -> List.rev !buffer)

let clear () =
  locked (fun () ->
      buffer := [];
      epoch := None)

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

(* Chrome trace-event format: a JSON array of "X" (complete) and "i"
   (instant) events. Both about:tracing and Perfetto accept the bare
   array form. *)
let to_chrome () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf "\n{\"name\":\"%s\",\"cat\":\"cftcg\",\"ph\":\"%s\",\"ts\":%.3f"
           (json_escape ev.ev_name)
           (if ev.ev_instant then "i" else "X")
           ev.ev_ts_us);
      if not ev.ev_instant then Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" ev.ev_dur_us);
      if ev.ev_instant then Buffer.add_string buf ",\"s\":\"t\"";
      Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" ev.ev_tid);
      (match ev.ev_args with
      | [] -> ()
      | args ->
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ",";
            Buffer.add_string buf (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          args;
        Buffer.add_string buf "}");
      Buffer.add_string buf "}")
    evs;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let save_chrome path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_chrome ()))

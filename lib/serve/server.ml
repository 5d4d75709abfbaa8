(* Accept loop of the serve daemon. One thread per connection, one
   request per connection (the protocol is Connection: close), and a
   select-with-timeout accept so a stop flag — typically set from a
   SIGTERM handler — is honoured within a poll interval. Every
   accepted socket gets a read deadline, so a client that connects and
   goes silent holds its thread (and delays shutdown, which joins
   every connection thread) for at most that long. Shutdown is
   orderly: stop accepting, drain in-flight connection threads, shut
   the scheduler down (joining every runner), remove the socket
   file. *)

module Log = Cftcg_obs.Log

let poll_interval = 0.2

(* seconds a connection may take to deliver its whole request *)
let read_deadline = 10.0

type t = {
  sv_sched : Scheduler.t;
  sv_resolve : string -> (Cftcg_ir.Ir.program, string) result;
  sv_conn_mutex : Mutex.t;
  mutable sv_conns : Thread.t list;
}

let handle_connection srv client =
  let ic = Unix.in_channel_of_descr client in
  let oc = Unix.out_channel_of_descr client in
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      let response =
        match Wire.read_request ic with
        | None -> None
        | Some (Error e) ->
          let status = Wire.request_error_status e in
          let (Wire.Bad_request msg | Wire.Too_large msg | Wire.Timeout msg) = e in
          Log.debug "request refused: %d %s" status msg;
          Some (Wire.error_response status msg)
        | Some (Ok rq) ->
          let response = Router.dispatch ~resolve:srv.sv_resolve srv.sv_sched rq in
          Log.debug
            ~fields:[ ("method", rq.Wire.rq_method); ("path", rq.Wire.rq_path) ]
            "request: %d" response.Wire.rs_status;
          Some response
      in
      match response with
      | None -> ()
      | Some response -> (
        try Wire.write_response oc response with
        | Sys_error _ | Unix.Unix_error _ -> () (* client went away; nothing to salvage *)))

let reap srv =
  (* join finished connection threads so the list stays bounded;
     Thread.join on a live thread would block, so track liveness by
     joining only at shutdown and trimming here opportunistically is
     not possible with the stdlib — instead the list is simply capped
     by joining everything once it grows past a high-water mark
     (requests are sub-millisecond; this never triggers under normal
     load) *)
  Mutex.lock srv.sv_conn_mutex;
  let conns = srv.sv_conns in
  if List.length conns > 256 then begin
    srv.sv_conns <- [];
    Mutex.unlock srv.sv_conn_mutex;
    List.iter Thread.join conns
  end
  else Mutex.unlock srv.sv_conn_mutex

let serve ?(read_deadline = read_deadline) ~resolve ~sched ~stop addr =
  (* a client closing mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Wire.listen addr in
  Log.info "daemon listening on %s" (Wire.addr_to_string addr);
  let srv =
    { sv_sched = sched; sv_resolve = resolve; sv_conn_mutex = Mutex.create (); sv_conns = [] }
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* drain in-flight requests, then the runners *)
      Mutex.lock srv.sv_conn_mutex;
      let conns = srv.sv_conns in
      srv.sv_conns <- [];
      Mutex.unlock srv.sv_conn_mutex;
      List.iter Thread.join conns;
      Log.info "daemon shutting down: draining runners";
      Scheduler.shutdown sched;
      match addr with
      | Wire.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | Wire.Tcp _ -> ())
    (fun () ->
      while not (stop ()) do
        match Unix.select [ fd ] [] [] poll_interval with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
          match Unix.accept fd with
          | client, _ ->
            Unix.setsockopt_float client Unix.SO_RCVTIMEO read_deadline;
            let th = Thread.create (fun () -> handle_connection srv client) () in
            Mutex.lock srv.sv_conn_mutex;
            srv.sv_conns <- th :: srv.sv_conns;
            Mutex.unlock srv.sv_conn_mutex;
            reap srv
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)

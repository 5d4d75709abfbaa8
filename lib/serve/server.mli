(** Accept loop of the serve daemon.

    One thread per connection, one request per connection
    ([Connection: close]); the accept is a [select] with a 200 ms
    timeout so the [stop] flag — typically set from a SIGTERM
    handler — is honoured promptly. *)

val read_deadline : float
(** Seconds (10) an accepted connection has to deliver its whole
    request; set as the socket's [SO_RCVTIMEO]. A connection that
    misses it is answered 408 and closed. *)

val serve :
  ?read_deadline:float ->
  resolve:(string -> (Cftcg_ir.Ir.program, string) result) ->
  sched:Scheduler.t ->
  stop:(unit -> bool) ->
  Wire.addr ->
  unit
(** Binds [addr] (a stale Unix-socket file with no listener is
    reclaimed; a live one raises [Failure]) and serves until [stop ()]
    turns true, then shuts down in order: stop accepting, drain
    in-flight connections, {!Scheduler.shutdown} (joins every runner
    thread), unlink the socket file. SIGPIPE is set to ignore — a
    client closing mid-response must not kill the daemon.
    [read_deadline] (default {!read_deadline}) bounds how long one
    connection may take to send its request, and so how long a silent
    client can delay shutdown. *)

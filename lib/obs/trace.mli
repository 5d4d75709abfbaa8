(** Nestable timed spans with Chrome trace-event export.

    A span is a named wall-clock interval on the calling domain's
    timeline; spans nest by dynamic scope ({!with_span} inside
    {!with_span}). The recorder is process-global and thread-safe —
    each span costs one mutex acquisition {e at span end}, nothing
    while the span is open.

    Tracing is {b off by default} and near-free when off: a disabled
    {!with_span} is one boolean load and a direct call of the body —
    no timestamps, no allocation. Enable it around the phases of
    interest, then {!save_chrome} the buffer; the resulting JSON loads
    in [about:tracing] and {{:https://ui.perfetto.dev}Perfetto}. *)

val set_enabled : bool -> unit
(** Default [false]. Enabling also (re)anchors the trace epoch if no
    event has been recorded yet. *)

val enabled : unit -> bool

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and, when tracing is enabled, records
    a complete ("X") event covering its duration on the calling
    domain's track. The span is recorded even if [f] raises. *)

val with_span_result :
  ?args:(string * string) list ->
  end_args:('a -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** {!with_span} whose event also carries [end_args] of [f]'s result,
    after [args]. A raising [f] records [args] alone; with tracing off
    [end_args] is never called. *)

val instant : ?args:(string * string) list -> string -> unit
(** A zero-duration marker ("i" event). *)

type event = {
  ev_name : string;
  ev_ts_us : float;  (** microseconds since the trace epoch *)
  ev_dur_us : float;  (** 0 for instants *)
  ev_tid : int;  (** recording domain id *)
  ev_instant : bool;
  ev_args : (string * string) list;
}

val events : unit -> event list
(** Recorded events, oldest first. *)

val clear : unit -> unit
(** Drops the buffer and re-anchors the epoch at the next event. *)

val to_chrome : unit -> string
(** The buffer as a Chrome trace-event JSON array. *)

val save_chrome : string -> unit
(** Writes {!to_chrome} to a file. *)

(** Crash flight recorder: a fixed-size, lock-free ring of recent
    structured events per domain, dumped as a well-formed JSON
    post-mortem when something dies.

    The recorder is the black box behind {!Log}: every emitted log
    line (and any event recorded directly) lands in the calling
    domain's ring, overwriting the oldest entry once the ring is
    full. Recording is lock-free after a domain's first event — one
    [Atomic.fetch_and_add] plus two array stores — and {b off by
    default}: a disabled {!record} is a single atomic boolean load,
    the same gate discipline as {!Metrics.set_collect}.

    A {e dump} ({!dump}) serializes the merged ring tails of every
    domain, a snapshot of the default metrics registry, and whatever
    {e providers} other layers registered (recent corpus-store
    operations) into [postmortem-<ts>.json]. The campaign layer calls it when the
    crash-isolation path salvages a worker; the serve daemon calls it
    when it aborts. *)

type entry = {
  fl_ts : float;  (** wall-clock seconds (Unix epoch) *)
  fl_level : string;  (** "debug" … "error", or a recorder-specific tag *)
  fl_msg : string;
  fl_fields : (string * string) list;  (** correlation ids and site fields *)
}

val set_enabled : bool -> unit
(** Default [false]. When off, {!record} is one atomic load and
    {!dump} returns [None]. *)

val enabled : unit -> bool

val set_capacity : int -> unit
(** Ring capacity per domain (default 256) for rings created after
    the call. Existing rings keep their size. *)

val record : ?ts:float -> ?fields:(string * string) list -> level:string -> string -> unit
(** Appends an event to the calling domain's ring ([ts] defaults to
    now). No-op when disabled. *)

val recent : ?limit:int -> unit -> entry list
(** The retained events of every domain merged by timestamp, oldest
    first, clipped to the newest [limit] (default 256). Reading is
    unsynchronized with writers — an in-flight entry may be missed —
    which is fine for a post-mortem surface. *)

val register_provider : string -> (unit -> string) -> unit
(** [register_provider name f] adds a named snapshot to every future
    dump: [f ()] must return one well-formed JSON value (it is
    embedded verbatim under ["snapshots"][name]). A provider that
    raises contributes [null]. Registering [name] again replaces the
    previous provider. *)

val set_dump_dir : string -> unit
(** Where post-mortem files are written (default: the current
    directory). *)

val dump : ?fields:(string * string) list -> reason:string -> unit -> string option
(** Writes [postmortem-<ts>.json] — reason, [fields] (typically the
    crashing job's correlation ids), the merged ring contents, a
    Prometheus snapshot of {!Metrics.default}, and every provider
    snapshot — and returns its path. Returns [None] when the recorder
    is disabled, when the per-process dump cap (64) is exhausted, or
    when the write fails (a dying process must not die harder). *)

val clear : unit -> unit
(** Drops every ring's contents and resets the dump cap (tests). *)

val json_escape : string -> string
(** Escapes a string for embedding inside a JSON string literal
    (shared with {!Log}'s line writer). *)

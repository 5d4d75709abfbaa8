(** Structured leveled JSONL logging with request-scoped correlation.

    Follows the same gate discipline as {!Metrics.set_collect}: the
    logger is {b off by default} and a disabled log call costs one
    atomic load — the format arguments are never rendered
    ([Printf.ikfprintf] discards them without building the string).
    Note the [?fields] list itself is still constructed by the
    caller; on a per-exec hot path, guard the call site with
    {!enabled} instead of relying on the gate alone. In practice
    every call site in this codebase fires at most once per epoch or
    per run, never per execution, so logging stays observation-only:
    same-seed campaigns are byte-identical with logging on or off.

    Each emitted line is one JSON object
    [{"ts":…,"level":"info","msg":"…","job":"c3","worker":"1",…}]:
    reserved keys [ts]/[level]/[msg], then the ambient correlation
    context and the call's [?fields] flattened alongside (all values
    JSON strings). Lines go to the optional file sink ({!open_file})
    and always to the {!Flight} ring, so [/debug/log] and post-mortem
    dumps see them even without a log file.

    {b Correlation context} is a stack of key/value fields scoped to
    the current (domain, thread): the serve boundary mints a job id,
    {!with_ctx} threads it through scheduler grants, campaign epochs
    and fuzzer workers, and every log line (and enabled {!Trace}
    span) picks it up automatically. Context does {e not} propagate
    into newly spawned domains — a campaign worker installs its own
    full context ([job]/[worker]/[epoch]) on entry. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

val level_of_string : string -> (level option, string) result
(** Accepts ["debug"|"info"|"warn"|"error"] and ["off"] (→ [Ok None]). *)

val set_level : level option -> unit
(** [Some l] enables lines at [l] and above; [None] (the default)
    disables logging entirely. *)

val current_level : unit -> level option

val enabled : level -> bool
(** One atomic load; use it to guard field construction on hot paths. *)

(** {1 File sink} *)

val open_file : ?append:bool -> string -> unit
(** Directs emitted lines to [path] as JSONL (truncates unless
    [~append:true]). Replaces any previously open sink. Writes are
    serialized by a mutex. *)

val close_file : unit -> unit
(** Flushes and closes the file sink, if any. Idempotent. *)

(** {1 Correlation context} *)

val with_ctx : (string * string) list -> (unit -> 'a) -> 'a
(** Runs the thunk with [fields] merged into the calling thread's
    ambient context (same-key fields override the outer binding);
    restores the previous context on exit, exceptions included. *)

val ctx : unit -> (string * string) list
(** The ambient context of the calling (domain, thread), outermost
    binding first. Empty when none is installed. *)

(** {1 Emission} *)

val debug : ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a
val info : ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a
val warn : ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a

val error : ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a
(** Explicit [?fields] are appended after the ambient context; a
    field whose key collides with the context (or with the reserved
    [ts]/[level]/[msg] keys) wins over the context and is emitted
    once. *)

val logf : level -> ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a
(** The same at a level chosen at run time. *)

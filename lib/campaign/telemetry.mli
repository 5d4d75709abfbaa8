(** Structured event stream of a parallel fuzzing campaign.

    Worker domains and the coordinator describe what they are doing as
    typed events; pluggable sinks decide what to do with them — keep
    them in memory for tests ({!ring}), append them as JSON lines for
    offline analysis ({!jsonl}), or render a live progress line for
    the CLI ({!progress}). Every sink constructor returns a
    thread-safe sink: [emit] may be called concurrently from several
    domains. *)

type event =
  | Exec_batch of {
      worker : int;
      epoch : int;
      executions : int;  (** executions so far in this worker's epoch run *)
      iterations : int;
      probes_covered : int;  (** worker-local view *)
    }  (** periodic heartbeat from a worker (every [progress_every] executions) *)
  | New_probe of {
      worker : int;
      epoch : int;
      probes : int;  (** previously-unseen cells this input lit (worker-local) *)
      executions : int;  (** worker execution index when found *)
    }  (** a worker found an input with new coverage *)
  | Corpus_sync of {
      epoch : int;
      candidates : int;  (** inputs offered by workers this epoch *)
      kept : int;  (** global corpus size after fingerprint dedup *)
      probes_covered : int;  (** global, after the merge *)
    }  (** the coordinator merged worker corpora (LibFuzzer's fork-mode merge) *)
  | Epoch_end of {
      epoch : int;
      executions : int;  (** cumulative, campaign-global *)
      probes_covered : int;
      probes_total : int;
      corpus_size : int;
    }
  | Plateau of { epoch : int; stalled_epochs : int }
      (** coverage has not grown for [stalled_epochs] epochs; the
          campaign stops early (hybrid campaigns only emit this once
          the solver phases are exhausted too) *)
  | Solver_phase of {
      epoch : int;
      round : int;
      targets : int;
      stalled_epochs : int;
      budget : int;  (** solver executions the phase may spend *)
      shards : int;  (** target shards, one per live job *)
    }
      (** a hybrid campaign hit the plateau and handed its [targets]
          still-uncovered probes to the bounded solver ([round] counts
          solver phases from 0) *)
  | Solver_done of {
      epoch : int;
      round : int;
      targets : int;
      solved : int;  (** probes the phase newly covered (campaign replay) *)
      executions : int;  (** executions charged by the phase *)
      probes_covered : int;  (** global, after absorbing solved inputs *)
      slowest_shard_executions : int;  (** the most any one shard spent *)
    }  (** the solver phase finished; the campaign resumes fuzzing iff [solved > 0] *)
  | Dead_workers of { epoch : int; dead_epochs : int }
      (** [dead_epochs] consecutive epochs ended with every worker
          crashed; the campaign stops rather than spin on a budget it
          can never spend *)
  | Failure of { worker : int; epoch : int; message : string }
      (** an Assertion block was violated *)
  | Worker_crash of { worker : int; epoch : int; message : string }
      (** a worker domain raised; the coordinator salvaged the
          surviving workers' results and applied the campaign's
          crash policy *)
  | Salvage of { message : string }
      (** a corpus-store recovery action: a quarantined corrupt file,
          a rebuilt index, or persistence skipped after exhausted
          retries *)

type sink = {
  emit : event -> unit;
  close : unit -> unit;
      (** flush and release resources; every constructor in this
          module returns an idempotent [close] — calling it again is a
          no-op *)
}

val null : sink
(** Discards everything. *)

val multi : sink list -> sink
(** Fans each event out to every sink, in order. [close] closes every
    sink even if one of them raises (the first exception is re-raised
    after the rest have been closed), and is idempotent like every
    other constructor here. *)

val ring : ?capacity:int -> unit -> sink * (unit -> event list)
(** In-memory ring buffer (default capacity 4096) plus a reader
    returning the retained events oldest-first. When more than
    [capacity] events arrive, the oldest are overwritten. *)

val jsonl : ?append:bool -> ?max_bytes:int -> string -> sink
(** Writes one JSON object per event to [path], with a monotonically
    increasing ["seq"] field recording global emission order. A fresh
    run truncates any existing file (the default); with
    [~append:true] — used when resuming a persisted campaign — new
    events are appended and the [seq] counter continues from the
    number of lines already present. [close] flushes, fsyncs and
    closes the file.

    [?max_bytes] bounds a long-lived feed (daemon job event logs):
    once the current file reaches the limit it is rotated — existing
    [path.N] segments shift to [path.N+1] (highest first), the
    current file becomes [path.1], and writing resumes in a fresh
    [path] — so [path.1] is always the most recent rotated segment.
    Rotation happens after the event that crossed the limit, so a
    segment may exceed [max_bytes] by one line. Segments are closed
    with the same fsync-on-close discipline, the ["seq"] counter runs
    across the whole chain, and [~append:true] resumes it from the
    total line count of [path] plus every [path.N]. A fresh
    (non-append) feed removes any leftover [path.N] chain first.
    Raises [Invalid_argument] when [max_bytes < 1]. *)

val report : sink -> event -> unit
(** [report sink e] is how a campaign reports a fact: it bumps the
    event's [cftcg_campaign_*_total] counter in
    {!Cftcg_obs.Metrics.default} (collecting or not), logs
    {!describe}[ e] with an ["event"] field naming its JSONL type when
    its level is enabled (heartbeats and new-probe events are never
    logged), then calls [sink.emit e]. *)

val describe : event -> string
(** The one-line text of an event: its log line, and the line
    {!progress} displays. *)

val series_bridge : Cftcg_obs.Series.t -> sink
(** Records a coverage-over-time point (Figure 7) at every
    [Epoch_end], with wall-clock time measured from the sink's
    creation. Epoch granularity — for per-discovery resolution use
    single-run [Fuzzer.run ?coverage_series]. *)

val progress : out_channel -> sink
(** Live one-line progress display for interactive use: heartbeats
    overwrite the line, epoch ends and other campaign facts commit
    it; new-probe and corpus-sync events are not shown. *)

val to_json : ?seq:int -> event -> string
(** The JSONL encoding of one event (exposed for tests). *)

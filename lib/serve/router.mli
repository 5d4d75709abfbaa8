(** HTTP surface of the serve daemon.

    {v
    POST   /campaigns             submit a campaign (JSON body) -> {"id": ...}
    GET    /campaigns             list jobs (submission order)
    GET    /campaigns/:id         status/coverage document
    GET    /campaigns/:id/events  buffered telemetry feed (JSON lines)
    DELETE /campaigns/:id         cancel a live job / delete a terminal record
    GET    /metrics               live Prometheus scrape (default registry)
    GET    /healthz               daemon + pool stats
    GET    /debug/jobs            per-job status + scheduler internals + recent events
    GET    /debug/log             tail of the flight-recorder ring (structured log lines)
    v}

    Submission body fields (all optional except [model]): [model],
    [tenant], [weight], [tenant_budget], [seed], [jobs] (0 resolves to
    the machine default, like [fuzz --jobs 0]), [total_execs],
    [execs_per_epoch], [plateau_epochs], [max_epochs], [seed_cap],
    [stop_on_full], [corpus_dir], [resume], [hybrid] (bool —
    plateau→solve→resume concolic phase; its solver executions are
    charged to the tenant like any others), [solver_execs],
    [solver_rounds]. Malformed fields yield a 400 naming the field;
    unknown fields are ignored. *)

val dispatch :
  resolve:(string -> (Cftcg_ir.Ir.program, string) result) ->
  Scheduler.t ->
  Wire.request ->
  Wire.response
(** [resolve] maps the submitted model name to an instrumented
    program (injected so this library stays independent of the
    model/bench layers). Never raises: handler exceptions become a
    500 response. *)

(** The analysis service: admission → cache → micro-batch → solve → respond.

    A service owns an {!Engine} (PAG, jmp store, scheduling plan), a
    {!Cache} and an {!Admission} queue, and turns a stream of {!Protocol}
    requests into responses:

    + {!submit_line} answers [ping]/[stats] immediately and resolves a
      query's variable. While the engine holds an oracle (the {b oracle
      tier}), a budget-free, deadline-free query is answered from it right
      here — O(1), before the cache, without entering the
      pipeline at all; refined requests fall through. Otherwise it computes
      the request's {e effective budget} (the request's own cap, the
      wall-clock deadline translated through the engine's observed
      traversal rate, and the service maximum — whichever is smallest),
      then consults the cache. A hit responds immediately; a miss enters
      the admission queue. While [max_batch] requests are queued, the
      service solves one batch before it handles the next request, so the
      queue never holds more than [max_batch]: a burst waits upstream
      (in its socket) instead of being refused.
    + {!pump} forms a micro-batch from whatever is queued — at most
      [max_batch] queries, with no timer: the front end pumps once it has
      read all its ready input, so batches grow only with load (requests
      pile up while a synchronous solve runs). Expired-deadline requests
      are answered [Timeout] without solving, duplicate in-batch queries
      are coalesced into one solve, and the batch runs on the engine's
      domain pool with the scheduler's direct-grouping + CD/DD order.
    + Completed solves are answered, cached for later identical requests,
      and checked against each request's own budget and deadline — a query
      whose deadline passed or whose budget the solve exceeded reports
      [Timeout], never a fabricated answer.

    Every admitted request carries a {!Span} stamped at admit →
    batch-formed → schedule-ordered → solve-start → solve-end → respond;
    its breakdown rides on the response, feeds the per-stage histograms
    ([parcfl_stage_seconds]) and the slowlog, and — when the service has a
    tracer — becomes a span on the Chrome trace's service lane. The oldest
    admitted request's age is the [health] verb's verdict and the
    [parcfl_svc_healthy] gauge.

    The service is driven from one front-end thread ({!Server}'s event
    loop or a test harness); the parallelism lives inside the engine's
    batch execution. Every reply is one rendered wire line, handed to the
    [send] given with its request, always from within
    {!submit_line}/{!pump}/{!drain}; {!submit} reads those lines back as
    {!Protocol.response} values for in-process callers. *)

type config = {
  threads : int;  (** engine domain pool size *)
  mode : Parcfl_par.Mode.t;
  max_batch : int;  (** micro-batch cap and admission-queue bound, queries *)
  cache_capacity : int;
  max_budget : int;  (** service-wide per-query step-budget ceiling *)
  context_sensitive : bool;
      (** solver context sensitivity; [false] runs the Andersen-equivalent
          context-insensitive engine *)
  oracle : bool;
      (** build the O(1) pair-query oracle at {!create} and answer
          budget-free, deadline-free queries from it before the cache and
          solver (see {!Engine.warm_start}). The oracle holds the CI
          relation, so it requires [context_sensitive = false]. *)
  tau_f : int option;
  tau_u : int option;
  slowlog_capacity : int;  (** flight-recorder bound (worst queries kept) *)
}

val default_config : config
(** 4 threads, [Share_sched], batches (and so the queue) of at most 64,
    cache 4096, budget and context sensitivity
    {!Parcfl_cfl.Config.default}'s, no oracle, slowlog 32. *)

type t

val create :
  ?config:config ->
  ?tracer:Parcfl_obs.Tracer.t ->
  type_level:(int -> int) ->
  Parcfl_pag.Pag.t ->
  t
(** @raise Invalid_argument when [config.max_batch <= 0], or when
    [config.oracle] and [config.context_sensitive] are both set. *)

val config : t -> config
val engine : t -> Engine.t
val queue_depth : t -> int

val health : t -> now:float -> string list
(** The [health] verb's reasons, empty when healthy: the oldest admitted
    request has waited more than 1 s ("queue starved"). A quiet service
    is healthy however long ago it last ran a batch. *)

val slowlog : t -> Slowlog.t
(** The flight recorder; populated by every answered query. *)

val registry : t -> Parcfl_telemetry.Registry.t
(** The telemetry registry with every subsystem's collectors registered
    (service counters, cache, jmp store, scheduler, oracle tier,
    per-worker busy time). It is the service's one store of reported
    values: the exposition renders it and {!stats} views it. Extendable
    by embedders before serving. *)

val metrics_text : t -> string
(** The full Prometheus text exposition — the [metrics] request payload
    and what the scrape listener serves. *)

val view : Parcfl_telemetry.Expo.family list -> Parcfl_obs.Json.t
(** The [stats] object over a set of families — the one place that names
    a [stats] key. Its rows, in wire order: the service event counters
    ([admitted] … [explains_miss]); [cache_hit_rate] and
    [mean_batch_size], recomputed from the counters they divide (0 on a
    zero denominator); the gauges [queue_depth],
    [cache_size] and [uptime_s]; the jmp store
    ([jmp_edges], [jmp_hits] … [jmp_unfinished]); [cache_evictions],
    [steps_per_second], [threads], [mode] (the [parcfl_svc_info] label);
    [oracle_live], then the live oracle's [oracle_build_seconds],
    [oracle_compressed_bytes] and [oracle_distinct_rows]. A key reads its
    family's unlabelled sample as an integer or a float — a non-finite
    value reads [null] — and is omitted when the family or that sample
    is missing: the oracle-shape families carry a sample only while an
    oracle is live, and over a federated scrape the relabelled gauges
    drop out.
    The cluster router views each replica's scrape and the counters of
    their merge the same way. *)

val stats : t -> Parcfl_obs.Json.t
(** The [stats] payload: [view (Registry.collect (registry t))]. *)

val submit_line :
  t -> now:float -> send:(string -> unit) -> Protocol.request -> unit
(** Handle one request. [send] gets its reply as one rendered wire line,
    newline included, zero or one time: immediately (ping, stats, cache
    hit, rejection, resolution error) or from a later {!pump}/{!drain}.
    An answer's objects array is written from the engine's escaped object
    names, and an oracle answer's from its row's cached array
    ({!Engine.oracle_objects}). With [max_batch] requests queued, any
    request but [Quit] first pumps one batch (whose replies go out before
    this request's). [Protocol.Quit] is transport-level and ignored
    here. *)

val submit :
  t ->
  now:float ->
  respond:(Protocol.response -> unit) ->
  Protocol.request ->
  unit
(** {!submit_line} for an in-process caller: [respond] gets each reply
    line parsed by {!Protocol.response_of_string}, the way the cluster
    router reads a replica's replies.
    @raise Failure if a reply line does not parse (none is dropped). *)

val pump : t -> now:float -> int
(** Execute one micro-batch of the oldest [min depth max_batch] queued
    requests, if any; returns the number of requests answered. The flush
    counts as [flushes_full] when the queue held [max_batch] or more, else
    as [flushes_idle]. Call it once the input at hand has been read: there
    is no window, so a lone request is solved on the pump that follows
    its arrival. *)

val drain : t -> now:float -> unit
(** Graceful shutdown: keep forming batches ([flushes_forced]) until the
    queue is empty — every in-flight request gets a real response. *)

val draining : t -> bool
(** Whether a [drain] request has been handled: once set, new queries are
    rejected with reason ["draining"] while stats/health/metrics
    keep answering (rolling restarts watch the hand-off this way). *)

val export_oracle : t -> (string * int, string) result
(** [(text, distinct_rows)]: the live oracle as an [oraclesnap] text (see {!Engine.export_oracle}). Errors when no live
    oracle is installed. *)

val import_oracle : t -> string -> (int, string) result
(** Install a peer's oracle snapshot, which arms the tier: a service
    started without [config.oracle] answers from the oracle after a
    successful import (cluster joiners warm up this way). Same
    generation/shape/CS rejection rules as {!Engine.import_oracle}; a
    rejected import leaves the tier as it was. *)

val shutdown : t -> unit
(** Join the engine's persistent worker domains (see {!Engine.shutdown}).
    Call after the final {!drain} when discarding a service; idempotent,
    and a later pump would transparently respawn the pool. *)

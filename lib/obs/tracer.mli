(** Per-worker, allocation-light event tracing.

    A tracer holds one fixed-capacity ring buffer per worker domain; emitting
    an event writes a tag, a variable id and a timestamp into preallocated
    arrays — no locks, no allocation, no cross-worker traffic on the hot
    path. When a ring is full the oldest events are overwritten, so tracing
    a long run costs bounded memory and the trace keeps the most recent
    window.

    The solver emits {!Query_start}/{!Query_end} around each query plus
    instants for jmp-store shortcut hits, early terminations and budget
    exhaustion; the result exports as Chrome [trace_event]-format JSON
    (load it in [chrome://tracing] or [https://ui.perfetto.dev]). *)

type kind =
  | Query_start  (** a [points_to]/[flows_to] query begins; arg = variable *)
  | Query_end  (** the query's outcome is decided (completed or aborted) *)
  | Jmp_hit  (** a Finished jmp shortcut replayed; arg = the jmp's variable *)
  | Early_term  (** an Unfinished marker terminated the query early *)
  | Budget_exhausted  (** the traversal budget ran out *)

val kind_name : kind -> string

type t

val create : ?capacity:int -> workers:int -> unit -> t
(** One ring of [capacity] events (default 65536) per worker in
    [0 .. workers-1], plus one request-span ring of the same capacity.
    @raise Invalid_argument on non-positive arguments. *)

val workers : t -> int

val note_request : t -> id:int -> var:int -> Span.t -> unit
(** Record one finished request's span (single writer: the service pump
    thread), exported as the trace's {e service lane}. [id] is the
    client's request id, [var] the resolved PAG variable. The span's
    stamps are absolute epoch microseconds, as the service takes them;
    the export puts them on this tracer's timebase. The tracer keeps the
    span itself, so it must not be stamped again after this call. When
    the ring is full the oldest span is overwritten. *)

val n_requests : t -> int
(** Request spans currently held. *)

val n_dropped_requests : t -> int
(** Request spans overwritten by ring wrap-around. *)

val emit : t -> worker:int -> kind -> var:int -> unit
(** Record one event, timestamped now. Timestamps are clamped to be
    non-decreasing within a worker. Out-of-range [worker] ids are ignored
    rather than raising — the tracer must never take down an analysis. *)

val n_events : t -> int
(** Events currently held across all rings. *)

val n_dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val iter : t -> (worker:int -> kind -> var:int -> ts:float -> unit) -> unit
(** Visit retained events, per worker in chronological order. [ts] is in
    microseconds since the tracer was created. *)

val to_json : t -> Json.t
(** Chrome trace-event JSON: [{"traceEvents": [...]}] with queries as
    ["B"]/["E"] duration pairs and the other kinds as thread instants.
    After wrap-around, a worker's leading events up to its first retained
    {!Query_start} are dropped so the exported nesting stays well formed.

    When request spans were noted, the export adds a second pseudo-process
    (pid 1, named ["service requests"]; the worker rings become pid 0
    ["solver workers"]): each request renders as an ["X"] complete event
    starting at its admit stamp, with nested stage slices (queue/batch/
    solve/respond) whose durations are its {!Span.breakdown} — the same
    figures its response and slowlog entry report — and overlapping
    requests are stacked onto separate lanes (tids) assigned greedily in
    admit order — so one trace file shows a query's queueing and its
    solve on the same timeline.

    The top-level [droppedEvents]/[droppedRequestSpans] fields carry
    {!n_dropped}/{!n_dropped_requests}, so a truncated trace declares
    itself, and [t0_us] carries the tracer's epoch origin in absolute
    microseconds, as an exact integer, so {!merge_cluster} can align several processes'
    relative timestamps on one clock. *)

val write_chrome : path:string -> t -> unit
(** [to_json] serialised to [path] (parent directories created). *)

(** One forwarded query's stamps at the cluster router, in {e absolute}
    epoch microseconds (the router correlates several replicas'
    timebases, so there is no single tracer origin to be relative to). *)
type router_span = {
  rs_id : int;  (** the client's request id — what the replica lane shows *)
  rs_rid : int;  (** the router's rewritten wire correlation id *)
  rs_replica : int;  (** backend index the query was forwarded to *)
  rs_var : int;  (** resolved PAG variable, or [-1] when unresolved *)
  rs_accept_us : float;  (** request line parsed off the client socket *)
  rs_route_us : float;  (** shard map consulted, backend picked *)
  rs_forward_us : float;  (** request written to the replica socket *)
  rs_reply_us : float;  (** replica's response line arrived *)
  rs_respond_us : float;  (** response written back to the client *)
}

val merge_cluster :
  router_spans:router_span list -> replicas:(int * Json.t) list -> Json.t
(** One Chrome trace for the whole cluster. The router renders as pid 0
    (["cluster router"]) with each forwarded query an ["X"] event
    (args: [id], [rid], [replica]) over greedy lanes, with nested
    route/forward/replica/respond slices; each [(index, trace)] in
    [replicas] — a replica's {!to_json} document — is shifted onto the
    merged clock via its [t0_us] (an integer, or a float as
    older traces wrote it) and re-homed to pid [index + 1]
    (["replica N"]), worker rows first, service-request lanes offset
    above them. The merged timebase is the earliest instant any process
    saw, rounded down to a whole microsecond; the merged [t0_us] is that
    integer. Request ids line up across lanes because the router forwards
    the client's id in the query's [trace=] option rather than its
    rewritten correlation id. Replicas that died without writing a trace
    are simply absent; [droppedEvents]/[droppedRequestSpans] sum over
    the replica documents. *)

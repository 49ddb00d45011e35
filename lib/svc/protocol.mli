(** The service's newline-delimited wire protocol.

    Requests are single lines of space-separated tokens; responses are
    single-line JSON objects ({!Parcfl_obs.Json}). The same parser/printer
    pair backs every front end (stdio pipe, Unix domain socket) and every
    client (the cluster router, [perfbench]), so client and server cannot
    drift.

    Request grammar (one request per line; blank lines are ignored by the
    transports):

    {v
    query <id> <var> [budget=<steps>] [deadline_ms=<float>] [trace=<id>]
    explain <id> <var> <obj>
    stats <id>
    metrics <id>
    slowlog <id> [<limit>]
    health <id>
    drain <id>
    ping <id>
    quit
    v}

    [<var>] is either [#<n>] — PAG variable id [n] — or a variable name
    resolved by exact match against the loaded PAG; [<obj>] is the same for
    allocation-site (object) names. [<id>] is an arbitrary client-chosen
    integer echoed back in the response so clients can pipeline requests. *)

type request =
  | Query of {
      id : int;
      var : string;  (** ["#<n>"] or an exact variable name *)
      budget : int option;  (** per-request step budget cap *)
      deadline_ms : float option;
          (** wall-clock deadline relative to admission *)
      trace : int option;
          (** the originating caller's id for this query when a proxy
              (the cluster router) rewrote [id] for its own correlation;
              the server's trace lane adopts it so one request id names
              the same work on both sides of the hop *)
    }
  | Explain of { id : int; var : string; obj : string }
      (** answer provenance: re-derive "why does [var] point to [obj]?"
          with witness tracing and return the edge chain; answered
          synchronously (cold path — the re-derivation shares nothing with
          the hot answer tiers) *)
  | Stats of int  (** service counters snapshot *)
  | Metrics of int  (** Prometheus text exposition of the full registry *)
  | Slowlog of { id : int; limit : int option }
      (** the flight recorder's worst queries by latency, worst first;
          [limit] truncates the reply *)
  | Health of int
      (** the liveness verdict: [ok], or [degraded] + reasons *)
  | Drain of int
      (** stop admitting queries (subsequent ones are [Rejected] with
          reason ["draining"]), finish everything in flight, then report
          {!Drained} — the rolling-restart / failover hand-off verb *)
  | Ping of int
  | Quit  (** begin graceful drain and shut the server down *)

val max_request_line : int
(** The longest request line, in bytes without its newline, that any
    transport accepts (64 KiB). Longer lines are answered with one
    [request line too long] error and the connection is closed. The
    server and the cluster router's client side share this limit, so a
    line the router accepts is never refused by a replica. *)

val parse_request : string -> (request, string) result
(** One line, no trailing newline. Total: never raises, whatever the
    bytes. *)

val request_id : request -> int option
(** The client-chosen correlation id; [None] only for [Quit]. A proxy
    rewrites it before forwarding so overlapping client id spaces never
    collide at the replica. *)

val request_to_string : request -> string
(** The canonical line for a request (used by the router and perfbench);
    [parse_request (request_to_string r) = Ok r]. *)

type timeout_reason = [ `Budget | `Deadline ]

type response =
  | Answer of {
      id : int;
      var : string;  (** the variable's name in the loaded PAG *)
      objects : string list;  (** pointed-to object names, sorted *)
      cached : bool;
      steps : int;
          (** budget the solve consumed (for cache hits: as recorded when
              the entry was produced) *)
      latency_us : float;
          (** admission-to-answer service latency (0 on a cache hit) *)
      breakdown : Parcfl_obs.Span.breakdown;
          (** where the latency went — serialised as the flat wire fields
              [queue_wait_us]/[batch_wait_us]/[solve_us]/[respond_us],
              which sum to [latency_us] (all-zero on a cache hit) *)
    }
  | Timeout of {
      id : int;
      reason : timeout_reason;
      cached : bool;
      latency_us : float;
      breakdown : Parcfl_obs.Span.breakdown;
          (** a deadline that expired in the queue reports its wait with
              [solve_us = 0] — distinguishable from a slow solve *)
    }
  | Rejected of { id : int; reason : string }
  | Error of { id : int option; reason : string }
  | Pong of int
  | Stats_reply of { id : int; stats : Parcfl_obs.Json.t }
  | Metrics_reply of { id : int; body : string }
      (** [body] is the multi-line exposition text, carried as one JSON
          string so the response still fits on one line *)
  | Slowlog_reply of { id : int; entries : Parcfl_obs.Json.t }
      (** a JSON list, worst query first (see {!Slowlog.to_json}) *)
  | Explain_reply of {
      id : int;
      var : string;  (** the variable's name in the loaded PAG *)
      obj : string;  (** the object's name in the loaded PAG *)
      found : bool;
          (** [false] when [obj] is not in [var]'s points-to set within
              budget — [chain] is then the empty list *)
      depth : int;  (** witness chain depth (steps, query variable first) *)
      latency_us : float;  (** wall-clock of the traced re-derivation *)
      chain : Parcfl_obs.Json.t;
          (** JSON list of edge objects in traversal order (query variable
              towards the allocation) — each carries the edge [kind], its
              stable [edge] id over the frozen PAG's numbering, endpoint
              names, [field]/[site] where the kind has one, and [ctx]: the
              context frames (call-site stack, top first) the traversal
              held when it crossed the edge *)
    }
  | Health_reply of { id : int; healthy : bool; reasons : string list }
      (** serialised with ["health": "ok" | "degraded"]; [reasons] name
          stalled workers / queue starvation (empty when healthy) *)
  | Drained of { id : int; completed : int }
      (** the drain finished; [completed] counts the queued requests that
          were answered while draining *)

val response_to_string : response -> string
(** Single-line JSON, no trailing newline. Written straight into a
    buffer; [Answer] and [Timeout] build no {!Parcfl_obs.Json.t}. Every
    value is spelled as {!Parcfl_obs.Json.to_string} spells it. *)

val response_line : response -> string
(** [response_to_string r ^ "\n"], rendered once: the wire line. *)

val answer_line :
  id:int ->
  var:string ->
  objects:string ->
  cached:bool ->
  steps:int ->
  latency_us:float ->
  breakdown:Parcfl_obs.Span.breakdown ->
  string
(** The wire line of an [Answer] whose objects are already rendered:
    [objects] is their JSON array text, blitted as is. With [objects] the
    rendering of a name list [ns], the line is byte for byte
    [response_line (Answer { objects = ns; ... })]. *)

val response_of_string : string -> (response, string) result
(** Total: never raises, whatever the bytes. *)

val response_id : response -> int option

(** {2 Reading a reply by its prefix}

    A proxy that only forwards a reply needs its id, not its body. These
    read and rewrite the [{"id":N,] prefix every rendered reply starts
    with, looking at a bounded number of bytes, and never raise. *)

val reply_id : string -> int option
(** [Some n] when the line starts with [{"id":n,] ([n] an integer in
    OCaml's range, optionally negative); [None] otherwise, including for
    [{"id":null,]. Whenever [reply_id l = Some n] and
    [response_of_string l] is [Ok r], [response_id r = Some n]. *)

val splice : string -> id:int -> string option
(** The line with its [{"id":N,] or [{"id":null,] prefix rewritten to
    [{"id":id,], newline-terminated and ready to send; [None] when the
    line starts with neither. For a rendered reply [r],
    [splice (response_to_string r) ~id] is the line of [r] with its id
    set to [id] (an [Error] gets [Some id]). *)

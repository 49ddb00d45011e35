(** Service counters.

    One striped counter ({!Parcfl_conc.Counter}) per event class, bumped by
    the service loop and readable at any time (a [stats] request snapshots
    them). The snapshot also carries the two gauges the counters cannot
    derive — current queue depth and cache size — which the service passes
    in at read time. *)

type counter =
  | Admitted  (** queries accepted into the inflight queue *)
  | Rejected  (** queries refused because the queue was full (backpressure) *)
  | Cache_hit
  | Cache_miss
  | Completed  (** queries answered with a points-to set *)
  | Timeout_budget  (** answered [Timeout] — step budget exceeded *)
  | Timeout_deadline  (** answered [Timeout] — wall-clock deadline passed *)
  | Batches  (** micro-batches executed *)
  | Batched_queries  (** queries executed across all batches (post-coalesce) *)
  | Coalesced  (** duplicate in-batch queries folded into one solve *)
  | Flush_full  (** batches formed with the queue at [max_batch] or more *)
  | Flush_idle  (** batches formed below [max_batch] once input ran dry *)
  | Flush_forced  (** batches formed by an explicit [drain] *)
  | Sched_groups  (** scheduling units executed across all batches *)
  | Early_terms  (** early terminations observed across all batches *)
  | Stage_queue_us
      (** cumulative admit→batch-formed microseconds over answered
          requests (see {!Span.breakdown}) *)
  | Stage_batch_us  (** cumulative batch-formed→solve-start microseconds *)
  | Stage_solve_us  (** cumulative solve microseconds *)
  | Stage_respond_us  (** cumulative solve-end→respond microseconds *)
  | Oracle_hit  (** queries answered by the O(1) oracle tier *)
  | Oracle_miss
      (** oracle tier enabled and live, but the request asked for a
          budget- or deadline-refined answer — fell through to the solver *)
  | Oracle_fallback
      (** oracle tier enabled but no live oracle (context-sensitive
          engine, generation died, or never built) — fell through *)
  | Explain_ok  (** [explain] requests that produced a witness chain *)
  | Explain_miss
      (** [explain] requests whose object was not in the variable's
          points-to set within budget (no witness) *)

val all : counter list
(** Every counter, in a fixed order (the [stats] field order). *)

val name : counter -> string
(** The counter's snake_case wire name. *)

type t

val create : unit -> t
(** Also stamps the creation time, the zero of {!uptime_s}. *)

val incr : ?worker:int -> t -> counter -> unit
val add : ?worker:int -> t -> counter -> int -> unit
val get : t -> counter -> int

val uptime_s : t -> float
(** Seconds since {!create}. *)

val ratios : (string * ((counter -> int) -> float)) list
(** The derived [stats] fields, by wire name, each computed from counter
    values: [cache_hit_rate] ([hits / (hits + misses)], 0 before any
    lookup) and [mean_batch_size] ([batched_queries / batches], 0 before
    any batch). The cluster's federated [stats] totals recompute them
    from summed counters with these same definitions. *)

val cache_hit_rate : t -> float

val to_json :
  ?extra:(string * Parcfl_obs.Json.t) list ->
  t ->
  queue_depth:int ->
  cache_size:int ->
  in_flight:int ->
  Parcfl_obs.Json.t
(** The [stats] response payload: every counter plus derived rates, the
    queue-depth / in-flight / cache-size gauges, [uptime_s], and any
    [extra] fields the service appends (jmp-store and eviction counters it
    owns the sources of). *)

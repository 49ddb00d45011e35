(** The cluster front end: one process, one listening socket, N engine
    replicas behind it.

    Clients speak the ordinary {!Parcfl_svc.Protocol} to the router; the
    router speaks it onward. Each query is routed by its variable's
    {b direct-relation component} through the {!Shard_map}, so queries
    that produce and consume each other's [jmp] shortcuts keep landing on
    the same replica — the cluster inherits the single engine's cache and
    store locality per shard instead of diluting it N ways. Correlation
    ids are rewritten on the way in and restored on the way out, so
    clients with overlapping id spaces can share the cluster; the
    client's original id still travels in the query's [trace=] option,
    so the replica's trace lane and the router's speak the same id.

    Failure handling, in order of detection speed:

    + a {b send or connection failure} drains the replica immediately
      ({!Failover.force_drain}) and {e replays} every request that was
      waiting on it against the survivors — a killed replica loses no
      answers, it only moves them (a late reply from the old replica is
      dropped, never double-delivered);
    + the {b health poll loop} probes every replica (live and drained)
      each [poll_interval] with the [health] verb; a degraded verdict, an
      unanswered probe older than 5 s, or a failed connect counts as a
      failed poll and drains a live replica;
    + a drained replica re-admits only after 3 {e consecutive} healthy
      polls ({!Failover}) — and its home shards route back by
      construction of rendezvous hashing.

    {b Slow peers.} Every connection is a non-blocking
    {!Parcfl_svc.Transport} one, so the loop never waits on a peer: one
    past the output cap is dropped — a replica as a dead replica — and
    counted in [parcfl_router_slow_peers_dropped_total]; a client with 128
    requests out is not read until replies return; a stalled replica
    drains within 5 s + [poll_interval] of the stall.

    {b Telemetry federation.} The router answers [ping] itself.
    [metrics], [stats], [slowlog] and [health] are {e scattered} to every
    live replica and the replies merged into one cluster-wide view
    ({!Federation}): [health] is [ok] iff at least one live replica
    answered and every one that answered is [ok], and the drained
    replicas are noted in its reasons without flipping the verdict
    ({!Federation.merge_health}); counters and histogram buckets
    sum, per-replica gauges gain a [replica="N"] label, slowlogs
    interleave worst-first. A [stats] is scattered as [metrics] and
    answered by {!federated_stats}, so the exposition is the one source
    of both. The router's own registry — routing counts
    per shard, replay/drain/re-admit totals, health-probe latency,
    per-replica in-flight gauges — federates ahead of the replicas'
    families as the [parcfl_router_*] namespace. A replica that dies
    mid-scatter only shrinks the merge; it never wedges the reply.
    [drain] stays a single-replica verb: it goes to the first live one.

    {b Placement is fixed at boot.} The router routes by the one
    [shard_map] it is given for its whole life; only drain and re-admit
    move keys, and rendezvous hashing moves only the drained shard's. *)

val serve :
  ?poll_interval:float ->
  ?on_span:(Parcfl_obs.Tracer.router_span -> unit) ->
  socket_path:string ->
  shard_map:Shard_map.t ->
  resolve:(string -> (int, string) result) ->
  Replica.t array ->
  unit
(** Run the router event loop until a client sends [quit]. [resolve] maps
    a protocol variable reference (["#<n>"] or an exact name) to its PAG
    id ({!Parcfl_pag.Names.var}, as the replicas resolve it) — the
    router resolves only to pick the shard and forwards the reference
    verbatim. The shard map's size must equal the replica count
    ([Invalid_argument] otherwise). [poll_interval] (default 0.5 s) is
    the time between health-poll rounds.

    On [quit] the router stops accepting and reading clients, keeps
    reading replicas until every forwarded request and federated gather
    has been answered (at most 5 s), then tells every replica to [quit]
    and returns once the queued replies have flushed.

    [on_span] receives one {!Parcfl_obs.Tracer.router_span} per answered
    query — the router-side accept/route/forward/reply/respond stamps —
    for {!Parcfl_obs.Tracer.merge_cluster}; when absent the router takes
    no clock readings on the hot path. *)

val federated_stats :
  (int * string) list -> (Parcfl_obs.Json.t, string) result
(** The router's answer to a federated [stats], from each live replica's
    [metrics] exposition: [replicas] (how many answered), [per_replica]
    (each replica's {!Parcfl_svc.Service.view}, tagged with its index)
    and [totals] — the view of the {e counter} families of their
    {!Federation.merge_families}: every counter key summed, and
    [cache_hit_rate]/[mean_batch_size] recomputed from the summed
    counters. No gauge ([threads], [queue_depth], [oracle_live], …) has
    a cluster total; each stays in its replica's entry. Errors name a
    replica whose exposition failed to parse or a family whose kind
    disagrees across replicas. *)

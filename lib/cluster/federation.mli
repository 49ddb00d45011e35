(** Cluster-wide merges of per-replica observability payloads.

    The router answers one client [metrics]/[stats]/[slowlog] by
    scattering it to every live replica (a [stats] goes out as
    [metrics]) and folding the replies through these functions, so a
    single scrape describes the whole cluster instead of one shard of
    it. Pure and synchronous — the router owns the sockets; this module
    owns the semantics. *)

val merge_metrics :
  ?extra:Parcfl_telemetry.Expo.family list ->
  (int * string) list ->
  (string, string) result
(** [merge_metrics ~extra [(replica, exposition); ...]] parses each
    replica's Prometheus text exposition
    ({!Parcfl_telemetry.Expo.parse_families}) and renders one federated
    exposition: counters and histogram buckets with equal names and
    labels are {e summed}; every gauge sample instead gains a
    [replica="N"] label and survives unsummed (instantaneous values do
    not add meaningfully); family help text comes from the first replica
    that exposes the family. Histogram series with unequal bucket-bound
    lists merge over the union of bounds, each side contributing its
    cumulative count at the greatest bound [<= le] — the [+Inf] bucket
    keeps totals exact. [extra] prepends locally-produced families (the
    router's own registry) to the merged output. Errors name the replica
    whose exposition failed to parse, or the family whose kind disagrees
    across replicas. *)

val merge_families :
  (int * Parcfl_telemetry.Expo.family list) list ->
  (Parcfl_telemetry.Expo.family list, string) result
(** The structural core of {!merge_metrics}; the router's federated
    [stats] views its counters. *)

val parse_scrapes :
  (int * string) list ->
  ((int * Parcfl_telemetry.Expo.family list) list, string) result
(** Parse each replica's exposition; the error names the first replica
    whose text failed to parse. *)

val merge_health :
  ?drained:string list ->
  (int * bool * string list) list ->
  bool * string list
(** [merge_health ~drained [(replica, healthy, reasons); ...]]: one
    cluster verdict — [ok] iff {e every} live replica that answered is
    [ok] (and at least one answered). Each replica's reasons are tagged
    [replica="N": ...]; [drained] prepends the router's own
    drained-replica notes, which inform but never flip the verdict
    (drained replicas are not live). *)

val merge_slowlogs :
  ?limit:int -> (int * Parcfl_obs.Json.t) list -> Parcfl_obs.Json.t
(** Concatenate the replicas' slowlog entry lists, tag each entry with
    its [replica] index, re-sort by worst [latency_us] (ties:
    newest [at] first — the per-replica contract, kept cluster-wide) and
    truncate to [limit] when given. *)

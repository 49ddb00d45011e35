(** The cross-batch result cache.

    Completed solves are stored keyed by [(variable, effective budget)]
    and consulted at admission, so a repeated query returns without
    touching the solver or the inflight queue. The key includes the
    {b budget} because a demand-driven answer is only meaningful relative
    to its budget [B] — the same variable solved under a larger budget
    may complete where a smaller one gave up. A service serves one PAG
    for its lifetime, so an entry never goes stale.

    Capacity is bounded: inserts beyond [capacity] trigger a batched
    least-recently-used sweep over the backing {!Parcfl_conc.Sharded_map}
    (recency is a logical tick bumped on every hit, eviction folds over
    the map, sorts by tick and removes the oldest ~10% — LRU-ish rather
    than exact LRU, which would need a global list and a global lock). *)

type key = { ck_var : int; ck_budget : int }

type t

val create : ?shards:int -> capacity:int -> unit -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val capacity : t -> int

val size : t -> int
(** Current entry count (approximate under concurrent writers). *)

val find : t -> key -> Parcfl_cfl.Query.outcome option
(** A hit refreshes the entry's recency. *)

val put : t -> key -> Parcfl_cfl.Query.outcome -> unit
(** Insert or refresh; evicts when the map outgrows [capacity]. *)

val evictions : t -> int
(** Entries removed by capacity sweeps so far. *)

val eviction_age_hist : t -> int array
(** Log2 histogram of the recency-tick age (now − last touch) of entries
    at the moment they were evicted: bucket [i] counts evictions whose age
    fell in [[2^i, 2^(i+1))]. Young evictions signal an undersized cache. *)

val clear : t -> unit

(** Immutable variable → shard map, affine to the scheduler's
    direct-relation grouping.

    Two queries whose variables are connected through [direct] edges —
    [(assign_l | assign_g | param_i | ret_i)*] — produce and consume each
    other's [jmp] shortcuts and hit each other's cached results, so a
    cluster routes a whole direct component to one replica: the map sends
    every variable to its component root's owner. Ownership is
    {b rendezvous (highest-random-weight) hashing} over the live shard
    set, so draining one shard moves {e only} that shard's components
    (each to its next-highest weight among the survivors) and re-admitting
    it moves exactly those components back — no global reshuffle, no
    stored assignment to migrate.

    {b Oversized components are sub-sharded.} A component far larger than
    the mean is the same outlier the scheduler's load-balance rule (paper
    Section III-C) splits into several scheduling units: keeping it whole
    would pin an outsized share of the cluster's work to one replica.
    Members of a component larger than the mean component size are
    rendezvous-hashed {e per variable} instead of per root. Repeats of one variable still land on one replica — the serving
    cache survives — and drain/re-admit still move only the affected
    shard's keys; only the outlier's cross-variable jmp reuse is traded
    for balance. *)

type t

val create :
  ?seed:int ->
  n_shards:int ->
  root_of:int array ->
  unit ->
  t
(** [root_of] maps each variable id to its direct-component root (any
    stable representative works); the array is copied. [seed]
    (default [0]) perturbs every rendezvous weight — two maps with
    different seeds are unrelated placements.
    @raise Invalid_argument when [n_shards <= 0] or a root is out of
    range. *)

val create_balanced :
  ?candidates:int ->
  n_shards:int ->
  root_of:int array ->
  load:int array ->
  unit ->
  t
(** Like {!create}, but picks the seed: builds the map for each seed in
    [0 .. candidates-1] (default [16]) and keeps the one whose busiest
    shard (all live) carries the smallest share of [load] — a static
    power-of-d-choices over placements. [load.(v)] is [v]'s expected
    query weight: the observed (or anticipated) traffic histogram when
    one is available, else weight [1] on each queryable variable.
    Drain/re-admit stability is per map and unaffected — the chosen seed
    is baked in.
    @raise Invalid_argument when [candidates <= 0] or [load] length
    disagrees with [root_of]. *)

val of_plan_balanced :
  ?candidates:int ->
  n_shards:int ->
  load:int array ->
  Parcfl_sched.Schedule.plan ->
  t
(** {!create_balanced} over the engine's prepared scheduling plan — the
    same partition the batch scheduler groups by, so shard affinity and
    schedule grouping agree by construction. *)

val n_shards : t -> int

val seed : t -> int
(** The rendezvous seed this map was built with. *)

val split_components : t -> int
(** Oversized components whose members hash per variable — balance
    diagnostics. *)

val home : t -> int -> int
(** [home t v]: [v]'s owner with every shard live — where it lives in a
    healthy cluster. @raise Invalid_argument when [v] is out of range. *)

val shard : t -> live:bool array -> int -> int
(** [shard t ~live v]: [v]'s owner among the live shards. Equals
    [home t v] whenever that shard is live.
    @raise Invalid_argument when no shard is live, [v] is out of range, or
    the mask length disagrees with [n_shards]. *)

val shard_sizes : t -> live:bool array -> int array
(** Variables owned per shard under [live] — balance diagnostics. *)

val busiest_share : t -> load:int array -> float
(** The busiest shard's share of [load] with every shard live — the
    quantity {!create_balanced} minimises. [load.(v)] is [v]'s weight;
    [0.0] when the profile is all zero. *)

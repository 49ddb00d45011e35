(** The concurrent jmp-edge store: the paper's graph-rewriting state.

    Conceptually this is the extension of the PAG with [jmp] edges (Fig. 4);
    operationally it is the ConcurrentHashMap of Section IV-A, keyed by
    [(direction, variable, context)]. Two record kinds per key:

    - {b Finished} (Fig. 3(a)): the complete [ReachableNodes] result — the
      exact step cost and the [(y, c'')] targets. Insert-if-absent: when two
      threads race, one wins and later lookups see a single consistent
      record.
    - {b Unfinished} (Fig. 3(b)): the [x ⟸jmp(s) O] marker recording that a
      query ran out of budget from this point. First insertion wins (the
      paper notes that preferring the larger [s] is cost-ineffective).

    Selective optimisation (Section IV-A): a Finished record is only kept
    when [cost >= tau_f] and an Unfinished record when [s >= tau_u]
    (defaults 100 and 10,000 — the paper's values for budget 75,000); this
    avoids flooding the map with shortcuts too cheap to pay for their own
    synchronisation. *)

type t

val create :
  ?shards:int ->
  ?tau_f:int ->
  ?tau_u:int ->
  ?directions:[ `Both | `Bwd_only ] ->
  unit ->
  t
(** [directions] (default [`Both]) restricts sharing to the PointsTo
    direction only — the configuration the paper describes explicitly; the
    forward dual is this implementation's extension (ablation benches
    measure its contribution). *)

val hooks : t -> Parcfl_cfl.Hooks.t
(** The solver-facing interface of this store. *)

val n_finished : t -> int
(** Finished records accepted (post-threshold). *)

val n_unfinished : t -> int

val n_jumps : t -> int
(** Table I's #Jumps: all jmp records added. *)

val n_hits : t -> int
(** Lookups that found a record (Finished or Unfinished). Lookups skipped
    because the store is restricted to [`Bwd_only] are not counted either
    way. *)

val n_misses : t -> int
(** Lookups that found no record for the key. *)

val histogram : t -> buckets:int -> int array * int array
(** [(finished, unfinished)] counts bucketed by [log2] of the steps saved
    per jmp edge (Fig. 7): bucket [i] counts records whose cost/threshold
    [s] satisfies [2^i <= s < 2^(i+1)]; the last bucket absorbs the
    overflow. *)

val clear : t -> unit

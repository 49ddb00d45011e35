(** Executing a batch of queries in one of the four configurations.

    {!run} executes for real: [threads] OCaml domains pull work units from a
    shared queue ({!Parcfl_conc.Work_queue}), sharing a concurrent jmp store
    when the mode calls for it. Work units are single queries, or scheduled
    groups in [Share_sched] mode.

    {!simulate} replays the same workload under a deterministic
    discrete-event model of [threads] virtual cores (one traversal step =
    one time unit, zero synchronisation cost): whenever a virtual thread is
    free it takes the next unit, runs its queries through the {e real}
    solver against a virtual-time jmp store ({!Sim_store}), and advances its
    clock by the steps actually walked. The resulting makespan measures the
    algorithmic speedup — work reduction by sharing/scheduling plus load
    distribution — independently of the host's core count. This is the
    substitute for the paper's 16-core testbed (see DESIGN.md). *)

val run :
  ?tau_f:int ->
  ?tau_u:int ->
  ?share_directions:[ `Both | `Bwd_only ] ->
  ?sched_order_within:bool ->
  ?sched_order_across:bool ->
  ?sched_plan:Parcfl_sched.Schedule.plan ->
  ?store:Parcfl_sharing.Jmp_store.t ->
  ?ctx_store:Parcfl_pag.Ctx.store ->
  ?type_level:(int -> int) ->
  ?solver_config:Parcfl_cfl.Config.t ->
  ?tracer:Parcfl_obs.Tracer.t ->
  ?pool:Parcfl_conc.Domain_pool.t ->
  mode:Mode.t ->
  threads:int ->
  queries:Parcfl_pag.Pag.var array ->
  Parcfl_pag.Pag.t ->
  Report.t
(** Each worker claims one work unit at a time from the shared queue.
    [pool] is a caller-owned domain pool to run on instead of spawning a
    fresh one per call — a long-lived service executing many micro-batches
    pays domain spawn/join once instead of per batch. Its size must equal
    [threads]. With [threads = 1] (and in [Seq] mode) it is ignored.
    [type_level] is required for meaningful [Share_sched] scheduling; it
    defaults to a constant function (all groups equal DD). [solver_config]
    defaults to {!Parcfl_cfl.Config.default}. [Seq] mode forces one thread.
    [share_directions], [sched_order_within] and [sched_order_across] are
    ablation knobs (see {!Parcfl_sharing.Jmp_store.create} and
    {!Parcfl_sched.Schedule.build}). [sched_plan] reuses a precomputed
    {!Parcfl_sched.Schedule.prepare} plan so scheduling a small batch does
    not re-walk the whole PAG (it must have been prepared against the same
    [pag]/[type_level]). [store] is a caller-owned jmp store that outlives
    this run — pass the same store to successive runs and later batches
    replay shortcuts recorded by earlier ones (the serving layer's
    cross-batch sharing); when absent, sharing modes create a private store
    for the batch and [tau_f]/[tau_u]/[share_directions] configure it.
    A caller-owned [store] MUST be paired with the caller-owned
    [ctx_store] its records were interned in: jmp keys and targets carry
    context ids that only that store resolves (a fresh per-run store would
    raise on them). Pass both or neither. The report carries only the
    store's Finished/Unfinished counts; a caller that wants the Fig. 7
    histogram passes its own [store] and reads
    {!Parcfl_sharing.Jmp_store.histogram} after the run, so a serving
    batch never pays a fold over the whole cross-batch store.
    [tracer] records per-worker solver events for Chrome trace export;
    create it with at least [threads] workers. If a worker raises, the
    exception propagates out of [run] — no query is ever silently dropped
    ([Report.t] is only built from a fully executed batch). *)

val simulate :
  ?tau_f:int ->
  ?tau_u:int ->
  ?sched_order_within:bool ->
  ?sched_order_across:bool ->
  ?type_level:(int -> int) ->
  ?solver_config:Parcfl_cfl.Config.t ->
  ?tracer:Parcfl_obs.Tracer.t ->
  mode:Mode.t ->
  threads:int ->
  queries:Parcfl_pag.Pag.var array ->
  Parcfl_pag.Pag.t ->
  Report.t
(** Deterministic; [r_sim_makespan] is set and [qs_latency_us] holds
    virtual steps rather than microseconds. Tracer events carry the
    virtual thread as the worker id. Like {!run}, a solver exception
    propagates rather than yielding a partial report. *)

val per_query_cost : Report.t -> int array
(** Steps walked per query (+1 dispatch overhead), in issue order — the
    simulator's time model, exposed for tests. *)

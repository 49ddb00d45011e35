(** The persistent solver state behind the service.

    An engine owns, for its whole lifetime: the loaded PAG, the shared jmp
    store (so shortcuts recorded by one batch are replayed by every later
    batch — the paper's data sharing lifted across batches), the
    precomputed scheduling plan (direct groups + CD/DD, built once per
    loaded graph instead of once per batch) and the monotone {b generation}
    counter that versions all of it for the result cache.

    {!execute} runs one micro-batch through {!Parcfl_par.Runner.run} on the
    configured mode/threads and returns the full report (per-query
    outcomes, wall-clock start/end stamps for deadline enforcement). It
    also maintains an exponentially-weighted estimate of the solver's
    traversal rate (steps/second), which the service uses to translate a
    wall-clock deadline into a step budget for the solver's existing
    budget [B]. *)

type t

val create :
  ?mode:Parcfl_par.Mode.t ->
  ?threads:int ->
  ?tau_f:int ->
  ?tau_u:int ->
  ?solver_config:Parcfl_cfl.Config.t ->
  ?tracer:Parcfl_obs.Tracer.t ->
  type_level:(int -> int) ->
  Parcfl_pag.Pag.t ->
  t
(** Defaults: [mode = Share_sched], [threads = 4],
    [solver_config = Config.default]. The solver config's budget is the
    service-wide {e maximum} per-query budget; requests can only lower it. *)

val pag : t -> Parcfl_pag.Pag.t
val generation : t -> int
val mode : t -> Parcfl_par.Mode.t
val threads : t -> int

val max_budget : t -> int
(** The solver config's budget [B]. *)

val ctx_store : t -> Parcfl_pag.Ctx.store
(** The live context-intern store (renewed by {!load}); the store that
    interns every context id the engine's outcomes and witnesses carry. *)

val explain :
  t ->
  var:Parcfl_pag.Pag.var ->
  obj:Parcfl_pag.Pag.obj ->
  Parcfl_cfl.Solver.Witness.t option
(** Answer provenance: re-derive [var]'s points-to query with witness
    tracing on a fresh hookless session (sharing off — replayed shortcuts
    carry no provenance) and return the witness chain for [obj] — [None]
    when [obj] is not in the set within budget. Runs on the caller's
    thread; cold path by design. *)

val load : t -> ?type_level:(int -> int) -> Parcfl_pag.Pag.t -> unit
(** Replace the loaded graph: bumps the generation, clears the jmp store
    and rebuilds the scheduling plan. [type_level] defaults to the previous
    one (pass it whenever the new graph has its own type hierarchy). *)

val warm_start : t -> preseed:bool -> oracle:bool -> int
(** One whole-program bitset-kernel run ({!Parcfl_matrix.Kernel}) feeding
    up to two consumers: with [preseed], install the kernel's facts as
    Finished jmp edges ({!Parcfl_matrix.Seed}); with [oracle], compress
    the kernel's rows into the O(1) pair-query oracle
    ({!Parcfl_oracle.Oracle.of_kernel}). Asking for both shares the single
    kernel solve. The oracle answers the CI relation, so a
    context-sensitive engine silently skips it. Returns the jmp records
    accepted (0 when preseeding was not requested or the mode has no jmp
    store). Both artefacts die with the generation: a later {!load}
    discards them. *)

val preseed : t -> int
(** Warm start (ROADMAP item 3): [warm_start ~preseed:true ~oracle:false].
    Solves the whole-program bitset kernel over the loaded PAG on the
    engine's thread count and installs its facts as Finished jmp edges —
    the full context-insensitive heap-step sets when the engine is
    context-insensitive, only the empty ones when it is context-sensitive.
    Returns the records accepted (0 when the mode has no jmp store). Call
    before accepting traffic; a later {!load} discards the seeds with the
    store they live in. *)

val oracle : t -> Parcfl_oracle.Oracle.t option
(** The live O(1) answer tier, if one was built or imported for the
    {e current} generation. Never returns an oracle from a previous
    generation: {!load} both clears the field and bumps the counter the
    accessor checks. *)

val preseeded_edges : t -> int
(** Finished records installed by {!preseed} into the current store (reset
    to 0 by {!load}). *)

val jmp_edges : t -> int
(** jmp records accumulated across all batches so far. *)

val jmp_hits : t -> int
(** Store lookups that found a record; 0 in modes without sharing. *)

val jmp_misses : t -> int
val jmp_finished : t -> int
val jmp_unfinished : t -> int

val steps_per_second : t -> float option
(** EWMA of observed traversal throughput; [None] until a batch with
    measurable wall time has run. *)

val deadline_budget : t -> seconds_left:float -> int
(** The step budget a request with [seconds_left] of wall clock can afford
    under the current rate estimate, clamped to [1 .. max_budget]. With no
    estimate yet, [max_budget] (optimistic: the first batch calibrates). *)

val execute : t -> budget:int -> Parcfl_pag.Pag.var array -> Parcfl_par.Report.t
(** Solve one deduplicated batch with per-query budget [budget]. The
    engine's worker domains are spawned on the first multi-threaded call
    and reused for every batch after it — domain spawn/join is paid once
    per engine, not once per batch. *)

val shutdown : t -> unit
(** Join the engine's persistent worker domains, if any were spawned.
    Idempotent, and not final: a later {!execute} simply spawns a fresh
    pool. Long-running processes that create many engines (benchmark
    harnesses, tests) must call this to stay under the runtime's domain
    limit. *)

val export_snapshot : t -> (string * int, string) result
(** [(text, records)]: the engine's Finished-only jmp store as a
    generation-tagged [jmpsnap] text
    ({!Parcfl_sharing.Jmp_store.export_finished}) plus the record count.
    Errors when the mode shares no jmp store. *)

val import_snapshot : t -> string -> (int, string) result
(** Install a peer's snapshot into this engine's jmp store, re-interning
    contexts locally. Rejected when the snapshot's generation differs from
    this engine's — only generation-stable facts ever replicate. Imported
    records count toward {!preseeded_edges}. *)

val export_oracle : t -> (string * int, string) result
(** [(text, distinct_rows)]: the live oracle as a generation-tagged
    [oraclesnap] text ({!Parcfl_oracle.Oracle.export}). Errors when the
    engine holds no live oracle. *)

val import_oracle : t -> string -> (int, string) result
(** Install a peer's oracle snapshot as this engine's answer tier,
    returning its distinct-row count. Rejected on a context-sensitive
    engine (the oracle answers the CI relation) and on a generation
    mismatch — the same rule as {!import_snapshot}. *)

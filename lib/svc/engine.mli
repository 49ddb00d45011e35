(** The persistent solver state behind the service.

    An engine serves one PAG for its whole lifetime and owns what is
    valid for exactly that graph: the shared jmp store (so shortcuts
    recorded by one batch are replayed by every later batch — the
    paper's data sharing lifted across batches), the precomputed
    scheduling plan (direct groups + CD/DD, built once instead of once
    per batch) and the O(1) oracle tier. Serving another graph means
    creating another engine.

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
val mode : t -> Parcfl_par.Mode.t
val threads : t -> int

val max_budget : t -> int
(** The solver config's budget [B]. *)

val ctx_store : t -> Parcfl_pag.Ctx.store
(** The context-intern store that interns every context id the engine's
    outcomes and witnesses carry. *)

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

val warm_start : t -> unit
(** Build the O(1) oracle tier ({!Parcfl_oracle.Oracle.build}: one
    sequential whole-program bitset-kernel run plus row compression). The oracle answers the CI relation, so a
    context-sensitive engine silently skips it. *)

val oracle : t -> Parcfl_oracle.Oracle.t option
(** The live O(1) answer tier, if one was built or imported. *)

(** {2 Answer objects}

    A points-to answer lists its objects' names sorted and deduplicated
    by name ([List.sort_uniq compare] over the names). The engine keeps
    each object's rank in that order and each name's
    escaped JSON token, so an answer is ordered by sorting integers and
    rendered by concatenating tokens. *)

val objects_json : t -> Parcfl_cfl.Query.result -> string
(** The result's object names, sorted and distinct, as a JSON array — as
    {!Parcfl_obs.Json} renders a list of strings; [[]] for
    [Out_of_budget]. *)

val oracle_objects : t -> Parcfl_pag.Pag.var -> string
(** {!objects_json} of the live oracle's answer for the variable. Built
    on the first hit of the variable's distinct row and kept per row
    until the oracle is replaced ({!warm_start}, {!import_oracle}).
    @raise Invalid_argument when no oracle is live. *)

val jmp_edges : t -> int
(** jmp records held by the store, accumulated across all batches. *)

val jmp_hits : t -> int
(** Store lookups that found a record; 0 in modes without sharing. This
    and the three counts below are monotone over the engine's lifetime. *)

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

val export_oracle : t -> (string * int, string) result
(** [(text, distinct_rows)]: the live oracle as an [oraclesnap] text
    ({!Parcfl_oracle.Oracle.export}). Errors when the engine holds no live
    oracle. *)

val import_oracle : t -> string -> (int, string) result
(** Install a peer's oracle snapshot as this engine's answer tier,
    returning its distinct-row count. Rejected on a context-sensitive
    engine (the oracle answers the CI relation), on a snapshot
    generation other than 0 (every engine builds generation 0), and when
    the snapshot's [n_vars]/[n_objs] differ from the PAG's (the error
    names both shapes) — see {!Parcfl_oracle.Oracle.import}. A rejected
    import leaves the tier as it was. *)

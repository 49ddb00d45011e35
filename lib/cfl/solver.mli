(** The demand-driven CFL-reachability solver (paper Algorithms 1 and 2).

    [PointsTo(l, c)] traverses the PAG backwards along the [flowsTo]-bar
    grammar (eq. 2/4) under the context-matching rules of [R_CS] (eq. 3),
    collecting the (object, context) pairs whose allocations can flow into
    [l] under [c]. [FlowsTo(o, c)] is the forward dual. Heap accesses are
    matched by [ReachableNodes]: a load [x = p.f] reaches the source [y] of
    every store [q.f = y] whose base [q] is an alias of [p], established by
    composing PointsTo and FlowsTo.

    Data sharing (Algorithm 2) is enabled by passing [hooks]: every
    [ReachableNodes] consultation first checks the jmp store, takes Finished
    shortcuts (charging their recorded cost to the budget), terminates early
    on Unfinished markers when the remaining budget is insufficient, and
    records its own results back. A single solver code path serves both
    algorithms — no hooks means Algorithm 1.

    Each query owns private memo tables for nested PointsTo/FlowsTo calls;
    cyclic alias dependences are broken by returning the partial accumulator
    of an in-flight computation (flagged in the outcome), or resolved exactly
    in [exhaustive] mode by iterating to a fixpoint. *)

type session

val make_session :
  ?hooks:Hooks.t ->
  ?matcher:Matcher.t ->
  ?stats:Stats.t ->
  ?tracer:Parcfl_obs.Tracer.t ->
  config:Config.t ->
  ctx_store:Parcfl_pag.Ctx.store ->
  Parcfl_pag.Pag.t ->
  session
(** [matcher] installs the refinement field-match abstraction (see
    {!Matcher}); unrefined load/store pairs are assumed to alias without a
    check. [tracer] records query start/end, jmp-shortcut hits, early
    terminations and budget exhaustion per worker (see
    {!Parcfl_obs.Tracer}); absent, tracing costs one branch per would-be
    event.
    @raise Invalid_argument when [hooks] is combined with
    [config.exhaustive], or with [matcher]. *)

val pag : session -> Parcfl_pag.Pag.t
val config : session -> Config.t
val stats : session -> Stats.t
val ctx_store : session -> Parcfl_pag.Ctx.store

type qstate
(** Reusable per-query solver state: memo tables, worklists and visited
    sets. One query runs at a time per qstate; running a new query resets
    the state in O(1) (generation-bumped tables) while keeping the backing
    storage warm, so a worker that answers many queries allocates almost
    nothing after the first. Not thread-safe — one qstate per worker. *)

val make_qstate : ?worker:int -> session -> qstate
(** [worker] indexes the stats stripes (default 0). *)

val points_to_with : qstate -> Parcfl_pag.Pag.var -> Query.outcome
(** [points_to] reusing [qstate]'s storage. Results are materialized into
    the outcome before return, so they survive the next query's reset. *)

val points_to : ?worker:int -> session -> Parcfl_pag.Pag.var -> Query.outcome
(** Answer one query [(l, ∅)] — the paper issues batch queries with the
    empty (unconstrained) context. [worker] indexes the stats stripes. *)

val points_to_in :
  ?worker:int ->
  session ->
  Parcfl_pag.Pag.var ->
  Parcfl_pag.Ctx.t ->
  Query.outcome
(** Query under a specific context. *)

val flows_to : ?worker:int -> session -> Parcfl_pag.Pag.obj -> Query.outcome
(** The inverse query: which (variable, context) pairs may [o] flow to.
    The [result]'s pairs are (variable, context), reusing the same type. *)

val may_alias : ?worker:int -> session -> Parcfl_pag.Pag.var -> Parcfl_pag.Pag.var -> bool option
(** Alias client: [Some b] when both queries complete, [None] when either
    runs out of budget. *)

(** Witness paths: an answer to "why does [l] point to [o]?". A witness is
    the chain of PAG edges the backward traversal followed from the query
    variable to the allocation's holder; heap steps summarise the matched
    load/store pair (the nested alias justification is itself queryable via
    the bases it names). *)
module Witness : sig
  type via =
    | Start
    | Assign
    | Global
    | Param of int
    | Ret of int
    | Heap of {
        field : Parcfl_pag.Pag.field;
        load_base : Parcfl_pag.Pag.var;
        store_base : Parcfl_pag.Pag.var;
      }

  type step = {
    var : Parcfl_pag.Pag.var;
    ctx : Parcfl_pag.Ctx.t;
    via : via;  (** how [var] was reached from the previous step *)
  }

  type t = {
    steps : step list;  (** query variable first *)
    obj : Parcfl_pag.Pag.obj;
    obj_ctx : Parcfl_pag.Ctx.t;
  }

  val pp :
    Parcfl_pag.Pag.t ->
    Parcfl_pag.Ctx.store ->
    Format.formatter ->
    t ->
    unit

  val edges : t -> Parcfl_pag.Pag.edge list
  (** The PAG edges the witness claims to have followed, in traversal
      order: one per step (two for a heap step — the matched load and
      store), closed by the holder's [New] edge. Purely structural; check
      the claims with {!replay}. *)

  val replay :
    Parcfl_pag.Pag.t -> query:Parcfl_pag.Pag.var -> t -> (unit, string) result
  (** Machine verification: the witness re-derives the answer iff it starts
      at [query], every edge of {!edges} exists in the graph, and the chain
      terminates in the object's allocation. [Error] names the first
      violated claim. *)

  val edge_ids : Parcfl_pag.Pag.t -> t -> (int list, string) result
  (** {!edges} resolved to stable ids ({!Parcfl_pag.Pag.edge_id}),
      traversal order; [Error] when a claimed edge is not in the graph. *)

  val depth : t -> int
  (** Number of steps (query variable included). *)
end

val explain :
  ?worker:int ->
  session ->
  Parcfl_pag.Pag.var ->
  Parcfl_pag.Pag.obj ->
  Witness.t option
(** [explain s l o] re-runs the query with provenance tracing (data sharing
    disabled for this query) and returns a witness path when [o] is indeed
    in [l]'s points-to set within budget; [None] otherwise. *)

val explain_many :
  ?worker:int ->
  session ->
  Parcfl_pag.Pag.var ->
  Parcfl_pag.Pag.obj list ->
  Witness.t option list
(** [explain_many s l os] is [List.map (explain s l) os] from a single
    traced re-run of [l]'s query instead of one per object: explaining a
    whole answer costs one query, not one per object. Every entry is
    [None] when the traced run exhausts its budget. *)

(** The Pointer Assignment Graph (paper Fig. 1).

    Nodes are variables (local or global) and abstract objects (allocation
    sites); edges are the seven statement kinds: [new], [assign_l],
    [assign_g], [ld(f)], [st(f)], [param_i] and [ret_i]. The graph is built
    once by the frontend ({!module:Parcfl_lang}) or by hand (tests), then
    frozen into immutable adjacency arrays that all query-processing domains
    read concurrently. [jmp] edges (the paper's Fig. 4 extension) are *not*
    stored here — they are added while the analysis runs and live in the
    concurrent {!Parcfl_sharing.Jmp_store}.

    All identifiers are dense non-negative ints: variables and objects in
    separate id spaces; fields and call sites in the frontend's id spaces. *)

type var = int
type obj = int
type field = int
type callsite = int

type edge =
  | New of { dst : var; obj : obj }          (** [dst <-new- obj] *)
  | Assign of { dst : var; src : var }       (** [dst <-assign_l- src] *)
  | Assign_global of { dst : var; src : var } (** [dst <-assign_g- src] *)
  | Load of { dst : var; base : var; field : field }  (** [dst = base.f] *)
  | Store of { base : var; field : field; src : var } (** [base.f = src] *)
  | Param of { dst : var; site : callsite; src : var }
      (** formal [dst] <- actual [src] at call site [site] *)
  | Ret of { dst : var; site : callsite; src : var }
      (** caller lhs [dst] <- callee return [src] at call site [site] *)

type t

(** {1 Building} *)

module Build : sig
  type b

  val create : unit -> b

  val add_var :
    b ->
    ?global:bool ->
    ?typ:int ->
    ?method_id:int ->
    ?app:bool ->
    string ->
    var
  (** [typ] is the variable's declared type (frontend type id, [-1] when
      untyped); [method_id] its enclosing method ([-1] for globals);
      [app] marks application-code variables — the paper issues queries for
      "all the local variables in its application code". *)

  val add_obj : b -> ?typ:int -> ?method_id:int -> string -> obj

  val new_edge : b -> dst:var -> obj -> unit
  val assign : b -> dst:var -> src:var -> unit
  val assign_global : b -> dst:var -> src:var -> unit
  val load : b -> dst:var -> base:var -> field -> unit
  val store : b -> base:var -> field -> src:var -> unit
  val param : b -> dst:var -> site:callsite -> src:var -> unit
  val ret : b -> dst:var -> site:callsite -> src:var -> unit

  val mark_ci_site : b -> callsite -> unit
  (** Mark a call site as context-insensitive: its [param]/[ret] edges are
      traversed without pushing/matching. The frontend marks sites inside
      call-graph recursion cycles this way — the paper collapses "recursion
      cycles of the call graph" (Section IV-A). *)

  val n_vars : b -> int

  val freeze : b -> t
end

(** {1 Sizes} *)

val n_vars : t -> int
val n_objs : t -> int
val n_nodes : t -> int
val n_edges : t -> int

(** {1 Node attributes} *)

val var_name : t -> var -> string
val obj_name : t -> obj -> string
val var_is_global : t -> var -> bool
val var_typ : t -> var -> int
val obj_typ : t -> obj -> int

val obj_method : t -> obj -> int
(** Method containing the allocation site, [-1] if unknown. *)

val var_method : t -> var -> int
val var_is_app : t -> var -> bool
val site_is_ci : t -> callsite -> bool

val app_locals : t -> var array
(** All application-code local variables, in id order — the paper's query
    population. *)

(** {1 Adjacency iterators (zero-allocation)}

    The frozen graph stores every relation in CSR form: one [offsets] array
    plus one packed [int array] payload per relation (pairs are packed as
    [hi lsl 39 lor lo], see {!Parcfl_prim.Pack}). These iterators walk a
    contiguous row of that payload and allocate nothing — they are the hot
    path's view of the graph. Neighbors are visited in edge-insertion
    order. *)

val iter_new_in : t -> var -> (obj -> unit) -> unit
val iter_new_out : t -> obj -> (var -> unit) -> unit
val iter_assign_in : t -> var -> (var -> unit) -> unit
val iter_assign_out : t -> var -> (var -> unit) -> unit
val iter_gassign_in : t -> var -> (var -> unit) -> unit
val iter_gassign_out : t -> var -> (var -> unit) -> unit

val iter_param_in : t -> var -> (callsite -> var -> unit) -> unit
(** [f i y] for each [x <-param_i- y] into this [x] (x formal, y actual). *)

val iter_param_out : t -> var -> (callsite -> var -> unit) -> unit
val iter_ret_in : t -> var -> (callsite -> var -> unit) -> unit
val iter_ret_out : t -> var -> (callsite -> var -> unit) -> unit

val iter_load_in : t -> var -> (field -> var -> unit) -> unit
(** [f fd p] for each [x = p.fd] into this [x]. *)

val iter_store_out : t -> var -> (field -> var -> unit) -> unit
(** [f fd q] for each [q.fd = y] out of this [y]. *)

val iter_stores_of_field : t -> field -> (var -> var -> unit) -> unit
(** [f q y] for each [q.fd = y] — the "all N matching stores" of
    [ReachableNodes] (Algorithm 1 line 19). A field id at or beyond
    {!n_fields} is legal (interned but never loaded/stored) and yields
    nothing.
    @raise Invalid_argument on a negative field id. *)

val iter_loads_of_field : t -> field -> (var -> var -> unit) -> unit
(** [f x p] for each [x = p.fd] — dual index for the FlowsTo direction.
    Bounds contract as {!iter_stores_of_field}. *)

val has_load_in : t -> var -> bool
val has_store_out : t -> var -> bool
val has_stores_of_field : t -> field -> bool
val has_loads_of_field : t -> field -> bool

(** {1 Adjacency snapshots (allocating)}

    Materialized copies of the same rows, for cold callers (serialization,
    export, tests). Mutating the returned arrays does not affect the
    graph. *)

val new_in : t -> var -> obj array
(** objects [o] with [x <-new- o]. *)

val new_out : t -> obj -> var array
(** variables [x] with [x <-new- o]. *)

val assign_in : t -> var -> var array
val assign_out : t -> var -> var array
val gassign_in : t -> var -> var array
val gassign_out : t -> var -> var array

val param_in : t -> var -> (callsite * var) array
(** pairs [(i, y)] with [x <-param_i- y] (x formal, y actual). *)

val param_out : t -> var -> (callsite * var) array
(** pairs [(i, x)] with [x <-param_i- y] for this [y]. *)

val ret_in : t -> var -> (callsite * var) array
val ret_out : t -> var -> (callsite * var) array

val load_in : t -> var -> (field * var) array
(** pairs [(f, p)] with [x = p.f]. *)

val store_out : t -> var -> (field * var) array
(** pairs [(f, q)] with [q.f = y] for this [y]. *)

val stores_of_field : t -> field -> (var * var) array
(** pairs [(q, y)] with [q.f = y]. A field id at or beyond {!n_fields} is
    legal (interned but never loaded/stored) and yields [[||]].
    @raise Invalid_argument on a negative field id. *)

val loads_of_field : t -> field -> (var * var) array
(** pairs [(x, p)] with [x = p.f] — the dual index for the FlowsTo
    direction. Bounds contract as {!stores_of_field}. *)

val n_fields : t -> int
(** Upper bound on field ids occurring in the graph plus one. *)

(** {1 Stable edge ids}

    A dense numbering of the frozen graph's edges in {!iter_edges} relation
    order (new, assign, gassign, load, store, param, ret): an edge's id is
    its relation's cumulative base plus its position in the relation's
    in-side CSR payload ([store] keyed by source, everything else by
    destination). Ids cover [0 .. n_edges-1], never change after
    {!Build.freeze}, and are what witness chains and their machine replay
    name edges by. Cold path only — resolution scans one CSR
    row ({!edge_id}) or binary-searches the offsets ({!edge_of_id}). *)

val edge_id : t -> edge -> int option
(** The edge's stable id, or [None] when no such edge exists in the
    graph. Duplicate parallel edges resolve to the first occurrence. *)

val edge_of_id : t -> int -> edge
(** Inverse of {!edge_id} (for the first occurrence of a duplicate).
    @raise Invalid_argument when the id is outside [0 .. n_edges-1]. *)

val has_edge : t -> edge -> bool
(** [edge_id t e <> None] — membership test for witness replay. *)

(** {1 Whole-graph iteration} *)

val iter_edges : t -> (edge -> unit) -> unit

val iter_direct_neighbors : t -> var -> (var -> unit) -> unit
(** Neighbors under the paper's [direct] relation (eq. 5): assign_l,
    assign_g, param, ret edges, both directions. Used for query grouping. *)

val iter_direct_succs : t -> var -> (var -> unit) -> unit
(** Directed version (value-flow direction: src -> dst) for connection
    distances. *)

val pp_stats : Format.formatter -> t -> unit

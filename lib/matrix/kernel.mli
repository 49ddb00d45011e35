(** Whole-program bitset matrix CFL-reachability kernel.

    The second, independent backend: the context-insensitive
    field-sensitive flowsTo fixpoint of the whole PAG, computed as
    bitset-matrix rounds (per-node points-to rows and in-edge rows,
    candidate selection by row intersection against a dirty vector,
    multi-domain row-range parallelism) rather than by demand-driven
    traversal. On Java-style PAGs this relation equals field-sensitive
    Andersen's analysis and the demand solver's oracle mode, which makes it
    both the saturation pass of the O(1) oracle tier
    ({!Parcfl_oracle.Oracle}) and a differential cross-check of the demand
    engine (test_matrix).

    The kernel is deterministic for any thread count: row-range
    partitioning gives every points-to row a single writer, and rows missed
    through a concurrent-read race are re-unioned the following round. *)

type t

val solve : ?threads:int -> Parcfl_pag.Pag.t -> t
(** Run the fixpoint over the frozen PAG. [threads] defaults to 1
    (strictly sequential). *)

val points_to : t -> Parcfl_pag.Pag.var -> Parcfl_prim.Bitset.t
(** The variable's points-to row, borrowed — do not mutate.
    @raise Invalid_argument when out of the PAG's variable range. *)

val points_to_list : t -> Parcfl_pag.Pag.var -> int list
(** Object ids, ascending. Bounds contract as {!points_to}. *)

val rounds : t -> int
(** BSP rounds to fixpoint (diagnostics). *)

val n_nodes : t -> int
(** Variables plus interned (object, field) heap nodes. *)

val n_vars : t -> int

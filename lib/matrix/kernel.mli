(** Whole-program bitset matrix CFL-reachability kernel.

    The second, independent backend: the context-insensitive
    field-sensitive flowsTo fixpoint of the whole PAG, computed as
    dirty-driven bitset rounds rather than by demand-driven traversal. On
    Java-style PAGs this relation equals field-sensitive Andersen's
    analysis and the demand solver's oracle mode, which makes it both the
    saturation pass of the O(1) oracle tier ({!Parcfl_oracle.Oracle}) and a
    differential cross-check of the demand engine (test_matrix).

    The kernel first condenses the copy relation (assign, global assign,
    param and ret edges) into its SCCs with one {!Parcfl_prim.Scc.compute};
    the nodes are those components plus the interned (object, field) heap
    nodes. Each round then visits only the nodes whose rows grew in the
    previous round and pushes just the new bits (a delta row) to their
    successors; a base's delta fires the load/store rule, and each new
    inclusion edge transfers its source's full row once. A round reads only
    the previous round's deltas, so the kernel is sequential and
    deterministic. *)

type t

val solve : Parcfl_pag.Pag.t -> t
(** Run the fixpoint over the frozen PAG. *)

val components : t -> Parcfl_prim.Scc.t
(** The copy-SCCs the kernel condensed: {!Parcfl_prim.Scc.compute} over
    {!Parcfl_pag.Pag.iter_direct_succs}, so the numbering is that pass's.
    Every member of a component has the same points-to row (physically
    shared). *)

val points_to : t -> Parcfl_pag.Pag.var -> Parcfl_prim.Bitset.t
(** The variable's points-to row, borrowed — do not mutate. Members of one
    copy-SCC share the row.
    @raise Invalid_argument when out of the PAG's variable range. *)

val points_to_list : t -> Parcfl_pag.Pag.var -> int list
(** Object ids, ascending. Bounds contract as {!points_to}. *)

val rounds : t -> int
(** Rounds to fixpoint (diagnostics). *)

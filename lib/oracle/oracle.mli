(** O(1) pair-query oracle from an offline Dyck decomposition.

    Chatterjee et al. ("Optimal Dyck Reachability", "Optimal and Perfectly
    Parallel Algorithms for On-demand Data-flow Analysis") split
    CFL-reachability into a near-linear offline pass and O(1) on-demand
    pair queries. This module is that split for our context-insensitive
    field-sensitive fragment:

    + {e decompose}: Tarjan-condense the PAG's direct (copy) relation with
      {!Parcfl_prim.Scc.compute} — variables in one copy-SCC provably share
      a points-to set (mutual subset inclusion), so one row serves the
      whole component;
    + {e saturate}: run the whole-program bitset kernel
      ({!Parcfl_matrix.Kernel.solve}) over that condensation to the CI
      fixpoint — the kernel's one SCC pass is the decomposition, reused
      here through {!Parcfl_matrix.Kernel.components};
    + {e compress}: dedupe identical rows across components by hashing,
      leaving one shared bitset per distinct points-to set plus a
      var → row-id table.

    Queries are then row lookups: {!points_to} returns the shared row
    (borrowed), {!may_alias} is one {!Parcfl_prim.Bitset.intersects} —
    both O(1) in graph size and allocation-free. {!outcome} answers in the
    demand solver's own currency (a {!Parcfl_cfl.Query.outcome} with zero
    steps) so a service can splice the oracle in front of its cache and
    solver.

    An oracle is frozen against one PAG: it answers for the graph it
    decomposed. It carries the caller's {!generation} tag, which
    importers check; a service engine never swaps its PAG and tags
    every oracle 0. *)

type t

val build : generation:int -> Parcfl_pag.Pag.t -> t
(** Run the offline pass: the condensed kernel fixpoint, then row
    compression over the kernel's copy-SCCs (component order fixes the row
    ids, so one PAG always exports the same snapshot). *)

(* {2 Queries} *)

val points_to : t -> Parcfl_pag.Pag.var -> Parcfl_prim.Bitset.t
(** The variable's points-to set as a shared row, borrowed — do not
    mutate. O(1), allocation-free.
    @raise Invalid_argument when out of the PAG's variable range. *)

val row : t -> Parcfl_pag.Pag.var -> int
(** The id, in [0 .. distinct_rows - 1], of the distinct row the variable
    shares: two variables with one row id have one points-to set. Bounds
    contract as {!points_to}. *)

val points_to_list : t -> Parcfl_pag.Pag.var -> int list
(** Object ids, ascending. Bounds contract as {!points_to}. *)

val may_alias : t -> Parcfl_pag.Pag.var -> Parcfl_pag.Pag.var -> bool
(** Row intersection ({!Parcfl_prim.Bitset.intersects}): O(min row words),
    allocation-free. Bounds contract as {!points_to}. *)

val outcome : t -> Parcfl_pag.Pag.var -> Parcfl_cfl.Query.outcome
(** The answer in the demand solver's shape: [Points_to] pairs under the
    empty context, [steps_used = 0]. The pair list is precomputed per
    distinct row, so this allocates only the outcome record itself. *)

(* {2 Provenance and accounting} *)

val generation : t -> int
val n_vars : t -> int
val n_objs : t -> int

val distinct_rows : t -> int
(** Distinct points-to sets across all variables — the compression's
    denominator. *)

val compressed_bytes : t -> int
(** Bytes held by the compressed representation: the var → row table plus
    one bitset per distinct row. *)

val build_seconds : t -> float

(* {2 Snapshots (cluster warm-up)} *)

val export : t -> string
(** A self-describing, generation-tagged text snapshot ([oraclesnap]) —
    the one warm-start artefact a joining replica loads, shipped through
    {!Parcfl_cluster.Snapshot}. *)

val import :
  generation:int -> Parcfl_pag.Pag.t -> string -> (t, string) result
(** Rebuild an oracle for the given PAG from {!export}ed text. Refused when
    the snapshot's generation differs from [generation] or its
    [n_vars]/[n_objs] differ from the PAG's (a snapshot of another graph
    would answer out-of-range rows); the error names both shapes. The
    parser is strict — it accepts exactly what {!export} writes, so an
    accepted text re-exports byte-identically — and never raises. *)

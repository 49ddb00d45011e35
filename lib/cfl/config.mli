(** Solver configuration. *)

type t = {
  budget : int;
      (** The paper's per-query budget [B]: the maximum number of node
          traversals (steps) a query may make before it is abandoned
          (Algorithm 1; the paper uses 75,000). [max_int] disables it. *)
  context_sensitive : bool;
      (** When false, [param]/[ret] edges are traversed like plain assigns
          and all contexts stay empty — the [L_FS] configuration of paper
          eq. (2), used by the Andersen-equivalence oracle. *)
  max_ctx_depth : int;
      (** Safety cap on context-stack depth. Recursion-cycle collapsing
          already bounds depth for well-formed call graphs; at the cap an
          edge that would push a call site is traversed without pushing
          it. That does not make the path context-insensitive: the
          matching edge out of the callee still requires its site on top
          of the stack, the unpushed site never is, so the path is cut
          there. A capped answer can therefore lose objects (an
          under-approximation, not sound); a sound k-limit is open under
          ROADMAP item 4. *)
  exhaustive : bool;
      (** Iterate each query to a fixpoint so that cyclic alias dependences
          are fully resolved: the exact CFL relation. Intended for oracle
          tests with [budget = max_int]; the paper's budgeted configuration
          uses a single descent pass. Must not be combined with data
          sharing. *)
}

val default : t
(** Budget 75,000 (the paper's), context-sensitive, depth cap 64, single
    pass. *)

val oracle : t
(** Unbounded, context-insensitive, exhaustive — computes the same relation
    as field-sensitive Andersen. *)

val with_budget : int -> t -> t

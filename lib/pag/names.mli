(** Protocol references to a PAG's variables and objects.

    A reference is ["#<n>"], the id itself (bounds-checked), or an exact
    name. Names repeat across methods; the lowest id bearing a name — its
    first binding — is the one a name resolves to, so resolution is
    deterministic and clients needing another binding use the [#<n>]
    form. The service and the cluster router both resolve through this
    module, so the router routes a query to the shard of the variable
    the replica will answer for. *)

type t

val of_pag : Pag.t -> t
(** Index every variable and object name of the graph. *)

val var : t -> string -> (Pag.var, string) result
(** A variable reference. Errors read [variable id <n> out of range
    (0..<max>)], [malformed variable id "<ref>"] or [unknown variable
    "<ref>"]. *)

val obj : t -> string -> (Pag.obj, string) result
(** An allocation-site reference; errors as for {!var}, with [object] for
    [variable]. *)

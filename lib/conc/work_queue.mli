(** Lock-protected shared work list.

    The paper's inter-query parallelisation: "maintain a lock-protected
    shared work list for queries and let each thread fetch queries (to
    process) from the work list until the work list is empty"
    (Section III-A). With query scheduling the units become query *groups*
    (Section III-C), which is why the element type is abstract.

    Items are served strictly in the order given at creation — the scheduling
    scheme depends on its DD/CD order being respected by the queue. *)

type 'a t

val create : 'a array -> 'a t

val of_list : 'a list -> 'a t

val pop : 'a t -> 'a option
(** Next item, or [None] when drained. *)

val remaining : 'a t -> int

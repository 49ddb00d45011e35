(** Bounded inflight-request queue — the service's backpressure valve.

    Admission is all-or-nothing: {!try_add} either enqueues or reports the
    queue full, and the caller answers the client with an explicit
    [rejected] response instead of buffering unboundedly. FIFO order is
    preserved from admission to batch formation (each batch takes a prefix;
    the scheduler may reorder {e within} the batch). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity <= 0]. *)

val capacity : 'a t -> int

val depth : 'a t -> int

val try_add : 'a t -> 'a -> bool
(** [false] means full — reject, do not retry internally. *)

val peek : 'a t -> 'a option
(** Oldest queued item, not removed (the watchdog reads its arrival time). *)

val take : 'a t -> max:int -> 'a list
(** Dequeue up to [max] oldest items, admission order. *)

val drain : 'a t -> 'a list
(** Everything, admission order; the queue is left empty. *)

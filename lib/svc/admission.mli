(** The inflight-request queue between admission and batch formation.

    It has no capacity of its own: {!Service} pumps a full batch before it
    handles another request while [max_batch] are queued, so the queue
    never holds more than that. FIFO order is preserved from admission to
    batch formation (each batch takes a prefix; the scheduler may reorder
    {e within} the batch). *)

type 'a t

val create : unit -> 'a t
val depth : 'a t -> int
val add : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Oldest queued item, not removed. *)

val take : 'a t -> max:int -> 'a list
(** Dequeue up to [max] oldest items, admission order. *)

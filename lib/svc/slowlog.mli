(** The slow-query flight recorder.

    A bounded record of the worst queries the service has answered, by
    service latency. Every completed (or timed-out) query is offered via
    {!note}; only the [capacity] slowest survive — a new entry evicts the
    current fastest once the recorder is full. The point is forensic: when
    tail latency spikes, [slowlog] answers {e which} variables, at what
    budget, with what cache/jmp outcome, without tracing every request.

    Thread-safe (a single mutex — [note] runs once per query, far off the
    solver's hot path). *)

type entry = {
  sl_id : int;  (** client request id *)
  sl_var : string;  (** variable name as resolved in the PAG *)
  sl_budget : int;  (** effective step budget the query ran under *)
  sl_steps : int;  (** budget consumed *)
  sl_latency_us : float;  (** admission-to-answer wall latency *)
  sl_breakdown : Parcfl_obs.Span.breakdown;
      (** where the latency went (all-zero for cache hits, which never
          enter the pipeline) *)
  sl_outcome : string;  (** ["ok"], ["timeout_budget"], ["timeout_deadline"] *)
  sl_cached : bool;  (** answered from the result cache *)
  sl_trace : int option;
      (** the client's [trace=] request id when a proxy (the cluster
          router) rewrote [sl_id] — lets a flight-recorder row be joined
          against the Chrome trace lanes, which speak the client's id *)
  sl_at : float;  (** completion time, epoch seconds *)
}

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val capacity : t -> int

val size : t -> int
(** Entries currently held ([<= capacity]). *)

val note : t -> entry -> unit
(** Offer a query. Kept iff the recorder has a free slot or the entry is
    slower than the current fastest resident (which it then replaces). *)

val worst : ?limit:int -> t -> entry list
(** Slowest first; ties broken by recency (newer first). [limit] truncates. *)

val to_json : ?limit:int -> t -> Parcfl_obs.Json.t
(** [worst] as a JSON list of objects with the [sl_*] fields (sans
    prefix). *)

val clear : t -> unit

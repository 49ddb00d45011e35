(** Liveness watchdog: is the service making progress?

    Two checks, both pure arithmetic over timestamps the service already
    has — the watchdog adds no clock reads to the solve path:

    - {b worker stall}: each engine worker carries a last-progress
      heartbeat, refreshed when a batch completes (workers that executed
      queries beat with their real last solve-end stamp, idle workers with
      the batch end). A worker whose beat is older than [wd_stall_s] while
      there is demand (a non-empty admission queue) is reported stalled.
    - {b queue starvation}: the oldest admitted request waiting longer
      than [wd_starvation_s] means batches are not being formed or are not
      keeping up.

    A quiet service (empty queue, no injection) is healthy no matter how
    old its beats are — workers only owe progress while there is demand.

    {!inject_stall} is the fault-injection hook: it backdates a worker's
    heartbeat past the threshold and freezes it, so the degraded verdict
    flows through the same age arithmetic as a real stall. The [health]
    protocol verb and the [parcfl_svc_healthy] gauge surface {!check}'s
    verdict. *)

type config = {
  wd_stall_s : float;  (** max heartbeat age under demand, seconds *)
  wd_starvation_s : float;  (** max oldest-admitted wait, seconds *)
}

val default_config : config
(** 5 s stall, 1 s starvation — orders of magnitude above a healthy
    batch's solve time, see DESIGN.md S20. *)

type t

val create : ?config:config -> workers:int -> now:float -> unit -> t
(** All heartbeats start at [now]. @raise Invalid_argument when
    [workers < 1] or a threshold is [<= 0]. *)

val config : t -> config
val workers : t -> int

val last_beat : t -> int -> float
(** Worker's heartbeat, seconds on the service clock. *)

val beat : t -> now:float -> worker:int -> unit
(** Refresh one heartbeat (monotone: an older stamp never rewinds it).
    Ignored for out-of-range workers and while a stall is injected. *)

val observe_batch : ?last_progress_us:float array -> t -> now:float -> unit
(** Heartbeat every worker after a batch joined: with
    [last_progress_us.(w) > 0] (epoch microseconds, the runner's
    per-worker last solve-end) the worker beats at that stamp, otherwise
    at [now]. *)

val inject_stall : t -> now:float -> worker:int -> stalled:bool -> unit
(** Fault injection. [stalled:true] backdates the worker's heartbeat past
    [wd_stall_s] and suppresses further beats; [stalled:false] lifts the
    injection and beats the worker at [now] (health recovers). *)

val injected : t -> int list
(** Workers with an active injected stall, ascending. *)

type verdict = { wd_healthy : bool; wd_reasons : string list }

val check : t -> now:float -> oldest_admitted:float option -> verdict
(** [oldest_admitted] is the arrival time of the queue's head request (or
    [None] when empty). Healthy iff no reason fires; reasons name the
    stalled workers and/or the starved queue with their observed ages. *)

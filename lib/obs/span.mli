(** Request-lifecycle spans: one record per admitted query, stamped at
    the six points a request crosses on its way through the service —

    {v admit → batch-formed → schedule-ordered → solve-start → solve-end → respond v}

    All stamps are microseconds on the clock the service is driven with
    (wall-clock epoch in a real server; a logical clock in deterministic
    tests). The solve stamps reuse {!Parcfl_par.Report.query_stat}'s
    [qs_start_us]/[qs_end_us] convention, so the span costs no extra clock
    reads on the solver's hot path.

    A finished span collapses into a {!breakdown} — the four stage
    durations every [Answer]/[Timeout] response, slowlog entry and
    per-stage histogram reports. *)

type t = {
  mutable sp_admit_us : float;  (** admitted into the queue *)
  mutable sp_batch_us : float;  (** taken into a micro-batch *)
  mutable sp_sched_us : float;  (** batch coalesced + handed to the engine *)
  mutable sp_solve_start_us : float;  (** solver began this query *)
  mutable sp_solve_end_us : float;  (** solver decided the outcome *)
  mutable sp_respond_us : float;  (** response delivered to the client *)
}

type breakdown = {
  bd_queue_wait_us : float;  (** admit → batch-formed *)
  bd_batch_wait_us : float;  (** batch-formed → solve-start *)
  bd_solve_us : float;  (** solve-start → solve-end *)
  bd_respond_us : float;  (** solve-end → respond *)
}

val create : admit_us:float -> t
(** Every later stamp is initialised to [admit_us], so an unstamped stage
    reads as zero duration (a request timed out before solving reports
    [bd_solve_us = 0]). *)

val stamp_batch : t -> us:float -> unit
val stamp_sched : t -> us:float -> unit
val stamp_solve : t -> start_us:float -> end_us:float -> unit
val stamp_respond : t -> us:float -> unit

val breakdown : t -> breakdown
(** Consecutive stamp differences, each clamped at [>= 0]. With monotone
    stamps the stages telescope: their sum is exactly
    [sp_respond_us -. sp_admit_us]. *)

val total_us : breakdown -> float
(** Sum of the four stages. *)

val zero : breakdown
(** The all-zero breakdown (cache hits never enter the pipeline). *)

val stage_names : string list
(** [["queue"; "batch"; "solve"; "respond"]] — label values of the
    [parcfl_stage_seconds] exposition family, in {!stage_values} order. *)

val stage_values : breakdown -> float list
(** The four stage durations in {!stage_names} order. *)

val breakdown_fields : breakdown -> (string * Json.t) list
(** The wire fields ([queue_wait_us], [batch_wait_us], [solve_us],
    [respond_us]) shared by responses and slowlog entries. *)

(** The result of one analysis run — everything the evaluation tables,
    figures and machine-readable emitters consume. *)

type query_stat = {
  qs_var : Parcfl_pag.Pag.var;
  qs_completed : bool;
  qs_steps_walked : int;  (** node traversals the query actually performed *)
  qs_steps_used : int;    (** budget consumed incl. jmp-shortcut charges *)
  qs_early_terminated : bool;
  qs_start_us : float;
      (** when the query began: absolute wall-clock microseconds (epoch)
          under {!Runner.run}, virtual time in steps under
          {!Runner.simulate} *)
  qs_end_us : float;
      (** when the query's outcome was decided, same clock as
          [qs_start_us]. Read by the serving layer to enforce per-request
          deadlines without a second [gettimeofday] call. *)
  qs_latency_us : float;
      (** [qs_end_us -. qs_start_us]: wall microseconds under
          {!Runner.run}, virtual steps under {!Runner.simulate} *)
  qs_minor_words : int;
      (** minor-heap words allocated while answering this query, measured
          on the worker's own domain ([Gc.minor_words] is per-domain in
          OCaml 5, so parallel workers don't pollute each other) *)
}

type t = {
  r_mode : Mode.t;
  r_threads : int;
  r_wall_seconds : float;
  r_sim_makespan : int option;
      (** simulated-parallel makespan in steps (set by {!Runner.simulate}) *)
  r_stats : Parcfl_cfl.Stats.snapshot;
  r_n_jumps_finished : int;
  r_n_jumps_unfinished : int;
      (** the jmp store's record counts after the run; the Fig. 7
          histogram is read from the store itself
          ({!Parcfl_sharing.Jmp_store.histogram}), not from the report *)
  r_mean_group_size : float;  (** the paper's [S_g]; 0.0 when unscheduled *)
  r_latency_hist : int array;
      (** per-query latency counts in {!hist_buckets} log2 buckets;
          sums to the query count *)
  r_steps_hist : int array;
      (** per-query steps-walked counts, same bucketing; sums to the
          query count *)
  r_minor_words_hist : int array;
      (** per-query minor-allocation counts, same bucketing; sums to the
          query count *)
  r_group_sizes : int array;
      (** scheduling-unit sizes in issue order (one entry per unit; a
          singleton per query when unscheduled) *)
  r_worker_busy_us : float array;
      (** per-worker time spent inside queries, indexed by worker id: wall
          microseconds under {!Runner.run}, virtual steps under
          {!Runner.simulate}. Busy over wall is the domain's utilization. *)
  r_queries : query_stat array;  (** in issue order *)
  r_outcomes : Parcfl_cfl.Query.outcome array;  (** same order *)
}

val hist_buckets : int
(** Bucket count of [r_latency_hist]/[r_steps_hist] (log2 buckets, last
    bucket absorbs overflow). *)

val n_jumps : t -> int

val total_walked : t -> int
(** Total steps actually traversed — Table I's [#S] when the run is the
    sequential baseline. *)

val n_early_terminations : t -> int

val n_completed : t -> int

val total_minor_words : t -> int
(** Sum of [qs_minor_words] over the batch. *)

val minor_words_per_query : t -> float
(** [total_minor_words / queries]; 0.0 on an empty batch. The headline
    allocation-pressure figure — near-zero when the solver's hot path is
    allocation-free and worker state is reused across queries. *)

val ratio_saved : t -> float
(** Steps served by jmp shortcuts over total step demand,
    [jumped / (walked + jumped)] — always in [\[0, 1\]] (the paper's [R_S]
    = jumped/walked is unbounded; see {!Parcfl_cfl.Stats.ratio_saved}). *)

val results_by_var :
  t -> (Parcfl_pag.Pag.var, Parcfl_cfl.Query.result) Hashtbl.t

val pp_summary : Format.formatter -> t -> unit

val pp_histograms : Format.formatter -> t -> unit
(** Render [r_latency_hist] and [r_steps_hist] as an ASCII histogram. *)

val to_json : ?bench:string -> t -> Parcfl_obs.Json.t
(** The bench-results entry for this run: mode, threads, wall/makespan,
    ratio saved, counters and both histograms (see
    {!Parcfl_obs.Bench_json}). *)

module Pag = Parcfl_pag.Pag
module Ctx = Parcfl_pag.Ctx
module Config = Parcfl_cfl.Config
module Solver = Parcfl_cfl.Solver
module Stats = Parcfl_cfl.Stats
module Query = Parcfl_cfl.Query
module Jmp_store = Parcfl_sharing.Jmp_store
module Schedule = Parcfl_sched.Schedule
module Work_queue = Parcfl_conc.Work_queue
module Domain_pool = Parcfl_conc.Domain_pool
module Histogram = Parcfl_stats.Histogram

let dummy_outcome =
  {
    Query.var = -1;
    result = Query.Out_of_budget;
    steps_used = 0;
    steps_walked = 0;
    early_terminated = false;
    used_partial = false;
  }

(* Work units in issue order, plus the slot offset of each unit's first
   query in the flat outcome array. *)
let make_units ?order_within ?order_across ?plan mode pag queries type_level =
  if Mode.uses_scheduling mode then begin
    let sched =
      match plan with
      | Some plan -> Schedule.build_with ?order_within ?order_across plan queries
      | None ->
          Schedule.build ?order_within ?order_across ~pag ~type_level queries
    in
    (sched.Schedule.groups, sched.Schedule.mean_group_size)
  end
  else (Array.map (fun q -> [| q |]) queries, 0.0)

let offsets_of units =
  let n = Array.length units in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun i u ->
      offsets.(i) <- !total;
      total := !total + Array.length u)
    units;
  (offsets, !total)

let query_stat_of (o : Query.outcome) start_us end_us minor =
  {
    Report.qs_var = o.Query.var;
    qs_completed = Query.completed o;
    qs_steps_walked = o.Query.steps_walked;
    qs_steps_used = o.Query.steps_used;
    qs_early_terminated = o.Query.early_terminated;
    qs_start_us = start_us;
    qs_end_us = end_us;
    qs_latency_us = end_us -. start_us;
    qs_minor_words = minor;
  }

(* A worker failure is surfaced by [Domain_pool.run] (real execution) or
   propagates out of the sequential loop (simulation), so a report is only
   ever built from a fully executed batch; a leftover dummy means a query
   was silently skipped — fail loudly rather than hand out a bogus
   Out_of_budget for it. *)
let ensure_complete outcomes =
  Array.iteri
    (fun i (o : Query.outcome) ->
      if o.Query.var < 0 then
        invalid_arg
          (Printf.sprintf
             "Par.Runner: query slot %d was never executed (worker failure \
              swallowed?)"
             i))
    outcomes

let finish_report ~mode ~threads ~wall ~sim_makespan ~stats ~jumps
    ~mean_group_size ~group_sizes ~busy ~starts ~ends ~minor outcomes =
  ensure_complete outcomes;
  let nf, nu = jumps in
  let buckets = Report.hist_buckets in
  let latency_hist =
    Histogram.of_values ~buckets
      (Array.map2 (fun s e -> int_of_float (e -. s)) starts ends)
  in
  let steps_hist =
    Histogram.of_values ~buckets
      (Array.map (fun (o : Query.outcome) -> o.Query.steps_walked) outcomes)
  in
  let minor_words_hist = Histogram.of_values ~buckets minor in
  {
    Report.r_mode = mode;
    r_threads = threads;
    r_wall_seconds = wall;
    r_sim_makespan = sim_makespan;
    r_stats = Stats.snapshot stats;
    r_n_jumps_finished = nf;
    r_n_jumps_unfinished = nu;
    r_mean_group_size = mean_group_size;
    r_latency_hist = latency_hist;
    r_steps_hist = steps_hist;
    r_minor_words_hist = minor_words_hist;
    r_group_sizes = group_sizes;
    r_worker_busy_us = busy;
    r_queries =
      Array.mapi
        (fun i o -> query_stat_of o starts.(i) ends.(i) minor.(i))
        outcomes;
    r_outcomes = outcomes;
  }

let run ?tau_f ?tau_u ?share_directions ?sched_order_within
    ?sched_order_across ?sched_plan ?store ?ctx_store
    ?(type_level = fun _ -> 1) ?(solver_config = Config.default) ?tracer
    ?pool ~mode ~threads ~queries pag =
  let threads = match mode with Mode.Seq -> 1 | _ -> max 1 threads in
  (match pool with
  | Some p when Domain_pool.threads p <> threads ->
      invalid_arg "Runner.run: pool size disagrees with threads"
  | _ -> ());
  (* A caller-owned jmp store must come with the context store its records
     were interned in — jmp keys and targets carry context ids that only
     that store can resolve. *)
  let ctx_store =
    match ctx_store with Some s -> s | None -> Ctx.create_store ()
  in
  let stats = Stats.create ~stripes:threads () in
  (* A caller-owned store persists jmp edges across runs (the serving
     layer's cross-batch sharing); without one, a fresh store lives for
     this batch only. Either way it is consulted only in sharing modes. *)
  let store =
    if Mode.uses_sharing mode then
      match store with
      | Some s -> Some s
      | None ->
          Some (Jmp_store.create ?tau_f ?tau_u ?directions:share_directions ())
    else None
  in
  let hooks = Option.map Jmp_store.hooks store in
  let session =
    Solver.make_session ?hooks ~stats ?tracer ~config:solver_config
      ~ctx_store pag
  in
  let units, mean_group_size =
    make_units ?order_within:sched_order_within
      ?order_across:sched_order_across ?plan:sched_plan mode pag queries
      type_level
  in
  let offsets, total = offsets_of units in
  let outcomes = Array.make total dummy_outcome in
  let starts = Array.make total 0.0 in
  let ends = Array.make total 0.0 in
  let minor = Array.make total 0 in
  let indexed = Array.mapi (fun i u -> (i, u)) units in
  let queue = Work_queue.create indexed in
  (* Per-worker slot: each domain writes only its own index, so no
     synchronisation is needed beyond the pool join. *)
  let busy = Array.make threads 0.0 in
  (* One reusable qstate per worker: the solver's worklists, memo tables
     and visited sets stay warm across the worker's whole share of the
     batch, so steady-state queries allocate (almost) nothing. *)
  let qstates =
    Array.init threads (fun w -> Solver.make_qstate ~worker:w session)
  in
  let worker ~worker =
    let qs = qstates.(worker) in
    let rec loop () =
      match Work_queue.pop queue with
      | None -> ()
      | Some (i, unit_vars) ->
          Array.iteri
            (fun j v ->
              let t0 = Unix.gettimeofday () in
              let m0 = Gc.minor_words () in
              let o = Solver.points_to_with qs v in
              let m1 = Gc.minor_words () in
              let t1 = Unix.gettimeofday () in
              starts.(offsets.(i) + j) <- t0 *. 1e6;
              ends.(offsets.(i) + j) <- t1 *. 1e6;
              busy.(worker) <- busy.(worker) +. ((t1 -. t0) *. 1e6);
              minor.(offsets.(i) + j) <- int_of_float (m1 -. m0);
              outcomes.(offsets.(i) + j) <- o)
            unit_vars;
          loop ()
    in
    loop ()
  in
  let t0 = Unix.gettimeofday () in
  if threads = 1 then worker ~worker:0
  else (
    (* A caller-owned pool amortises domain spawn/join across batches — a
       long-lived service pays it once, not per pump. *)
    match pool with
    | Some pool -> Domain_pool.run pool worker
    | None ->
        Domain_pool.with_pool ~threads (fun pool ->
            Domain_pool.run pool worker));
  let wall = Unix.gettimeofday () -. t0 in
  let jumps =
    match store with
    | Some s -> (Jmp_store.n_finished s, Jmp_store.n_unfinished s)
    | None -> (0, 0)
  in
  finish_report ~mode ~threads ~wall ~sim_makespan:None ~stats ~jumps
    ~mean_group_size ~group_sizes:(Array.map Array.length units)
    ~busy ~starts ~ends ~minor outcomes

let simulate ?tau_f ?tau_u ?sched_order_within ?sched_order_across
    ?(type_level = fun _ -> 1) ?(solver_config = Config.default) ?tracer
    ~mode ~threads ~queries pag =
  let threads = match mode with Mode.Seq -> 1 | _ -> max 1 threads in
  let ctx_store = Ctx.create_store () in
  let stats = Stats.create ~stripes:threads () in
  let store =
    if Mode.uses_sharing mode then Some (Sim_store.create ?tau_f ?tau_u ())
    else None
  in
  let units, mean_group_size =
    make_units ?order_within:sched_order_within
      ?order_across:sched_order_across mode pag queries type_level
  in
  let offsets, total = offsets_of units in
  let outcomes = Array.make total dummy_outcome in
  let starts = Array.make total 0.0 in
  let ends = Array.make total 0.0 in
  let minor = Array.make total 0 in
  let clocks = Array.make threads 0 in
  (* Discrete-event loop: the next unit always goes to the thread that
     frees up first (ties to the lowest id) — a shared work queue with zero
     synchronisation cost. *)
  let pick () =
    let best = ref 0 in
    for t = 1 to threads - 1 do
      if clocks.(t) < clocks.(!best) then best := t
    done;
    !best
  in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i unit_vars ->
      let th = pick () in
      Array.iteri
        (fun j v ->
          let start = clocks.(th) in
          let m0 = Gc.minor_words () in
          let finish =
            match store with
            | None ->
                let session =
                  Solver.make_session ~stats ?tracer ~config:solver_config
                    ~ctx_store pag
                in
                let outcome = Solver.points_to ~worker:th session v in
                (outcome, start + outcome.Query.steps_walked + 1)
            | Some st ->
                let qs = Sim_store.begin_query st ~start in
                let session =
                  Solver.make_session ~hooks:qs.Sim_store.hooks ~stats
                    ?tracer ~config:solver_config ~ctx_store pag
                in
                let outcome = Solver.points_to ~worker:th session v in
                (* Records become visible when the query completes; the
                   publication's own synchronisation cost lands on this
                   thread's clock but overlaps the visibility point. *)
                let avail =
                  start + outcome.Query.steps_walked + 1
                  + qs.Sim_store.sync_cost ()
                in
                qs.Sim_store.publish ~avail;
                ( outcome,
                  start + outcome.Query.steps_walked + 1
                  + qs.Sim_store.sync_cost () )
          in
          let outcome, t_end = finish in
          (* Charged to the query including its per-query session — the
             simulator measures the unshared-state configuration. *)
          minor.(offsets.(i) + j) <- int_of_float (Gc.minor_words () -. m0);
          clocks.(th) <- t_end;
          (* Virtual latency: the query's span on its thread's clock. *)
          starts.(offsets.(i) + j) <- float_of_int start;
          ends.(offsets.(i) + j) <- float_of_int t_end;
          outcomes.(offsets.(i) + j) <- outcome)
        unit_vars)
    units;
  let wall = Unix.gettimeofday () -. t0 in
  let makespan = Array.fold_left max 0 clocks in
  let jumps =
    match store with
    | Some s -> (Sim_store.n_finished s, Sim_store.n_unfinished s)
    | None -> (0, 0)
  in
  finish_report ~mode ~threads ~wall ~sim_makespan:(Some makespan) ~stats
    ~jumps ~mean_group_size
    ~group_sizes:(Array.map Array.length units)
    ~busy:(Array.map float_of_int clocks)
    ~starts ~ends ~minor outcomes

let per_query_cost report =
  Array.map
    (fun q -> q.Report.qs_steps_walked + 1)
    report.Report.r_queries

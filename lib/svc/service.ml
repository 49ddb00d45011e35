module Pag = Parcfl_pag.Pag
module Names = Parcfl_pag.Names
module Ctx = Parcfl_pag.Ctx
module Config = Parcfl_cfl.Config
module Query = Parcfl_cfl.Query
module Solver = Parcfl_cfl.Solver
module Mode = Parcfl_par.Mode
module Report = Parcfl_par.Report
module Json = Parcfl_obs.Json
module Span = Parcfl_obs.Span
module Expo = Parcfl_telemetry.Expo
module Registry = Parcfl_telemetry.Registry
module Histogram = Parcfl_stats.Histogram
module Tracer = Parcfl_obs.Tracer
module Counter = Parcfl_conc.Counter

type config = {
  threads : int;
  mode : Mode.t;
  max_batch : int;
  cache_capacity : int;
  max_budget : int;
  context_sensitive : bool;
  oracle : bool;
  tau_f : int option;
  tau_u : int option;
  slowlog_capacity : int;
}

let default_config =
  {
    threads = 4;
    mode = Mode.Share_sched;
    max_batch = 64;
    cache_capacity = 4096;
    max_budget = Config.default.Config.budget;
    context_sensitive = Config.default.Config.context_sensitive;
    oracle = false;
    tau_f = None;
    tau_u = None;
    slowlog_capacity = 32;
  }

(* [health] reports degraded once the oldest admitted request has waited
   this long: orders of magnitude above a healthy batch's solve time. *)
let starvation_s = 1.0

type pending = {
  p_id : int;
  p_trace : int option;
      (* the originating caller's id when a proxy rewrote p_id; the
         trace lane reports this one so router and replica lanes agree *)
  p_var : Pag.var;
  p_budget : int;  (* effective step budget for this request *)
  p_deadline : float option;  (* absolute seconds *)
  p_arrival : float;
  p_span : Span.t;
  p_send : string -> unit;  (* where the request's reply line goes *)
}

(* The service's event counters: one striped handle each, bumped on the
   request path with no name lookup. Each is registered once, as the
   family its [stats] row reads (see [rows]). *)
type counters = {
  admitted : Counter.t;  (* queries accepted into the inflight queue *)
  rejected : Counter.t;  (* refused while draining *)
  cache_hits : Counter.t;
  cache_misses : Counter.t;
  completed : Counter.t;  (* answered with a points-to set *)
  timeouts_budget : Counter.t;
  timeouts_deadline : Counter.t;
  batches : Counter.t;
  batched_queries : Counter.t;  (* queries across all batches, pre-coalesce *)
  coalesced : Counter.t;  (* duplicate in-batch queries folded into one *)
  flushes_full : Counter.t;  (* batches formed at [max_batch] or more *)
  flushes_idle : Counter.t;  (* batches formed below it, input drained *)
  flushes_forced : Counter.t;  (* batches formed by [drain] *)
  sched_groups : Counter.t;
  early_terminations : Counter.t;
  stage_us : Counter.t array;
      (* cumulative microseconds per Span stage, in [Span.stage_names]
         order, over answered requests *)
  oracle_hits : Counter.t;
  oracle_misses : Counter.t;  (* live tier, refined request fell through *)
  explains_ok : Counter.t;
  explains_miss : Counter.t;
}

let make_counters () =
  let c () = Counter.create () in
  {
    admitted = c (); rejected = c (); cache_hits = c (); cache_misses = c ();
    completed = c (); timeouts_budget = c (); timeouts_deadline = c ();
    batches = c (); batched_queries = c (); coalesced = c ();
    flushes_full = c (); flushes_idle = c (); flushes_forced = c ();
    sched_groups = c (); early_terminations = c ();
    stage_us = Array.init (List.length Span.stage_names) (fun _ -> c ());
    oracle_hits = c (); oracle_misses = c ();
    explains_ok = c (); explains_miss = c ();
  }

let bump c = Counter.incr c ~worker:0
let add c n = Counter.add c ~worker:0 n

type t = {
  cfg : config;
  engine : Engine.t;
  cache : Cache.t;
  queue : pending Admission.t;
  counters : counters;
  created : float;  (* the zero of [uptime_s] *)
  slowlog : Slowlog.t;
  registry : Registry.t;
  tracer : Tracer.t option;
  names : Names.t;
  explain_hist : int array;  (* explain re-derivation latency, us, log2 *)
  chain_hist : int array;  (* witness chain depth, log2 *)
  (* Cumulative service-lifetime histograms (log2 buckets), folded in from
     each batch report on the pump thread — no synchronisation needed. *)
  lat_hist : int array;
  steps_hist : int array;
  minor_words_hist : int array;
  group_hist : int array;
  stage_hists : int array array;  (* per Span stage, microsecond buckets *)
  busy_us : float array;  (* per engine worker, across all batches *)
  mutable draining : bool;
      (* set by the [drain] verb: new queries are rejected with reason
         "draining" while stats/health/metrics keep answering, so an
         operator (or the cluster router) can watch the hand-off *)
}

(* The [health] verb's reasons; none means healthy. A quiet service is
   healthy: only a request left waiting in the queue owes progress. *)
let health t ~now =
  match Admission.peek t.queue with
  | Some p when now -. p.p_arrival > starvation_s ->
      [
        Printf.sprintf
          "queue starved: oldest admitted waiting %.1fs (threshold %.1fs)"
          (now -. p.p_arrival) starvation_s;
      ]
  | _ -> []

(* ------------------------------ stats ------------------------------ *)

(* How a [stats] key reads its family's samples: the unlabelled sample
   as an integer or a float, or the value of one label. *)
type shape = Int | Float | Label of string

(* One [stats] key. A [Family] row is also the one definition of the
   family it reads — name, help, kind and reader — so the registry
   exports it and [view] reads it back under the same name; [read]
   returning no sample exports the family empty, and the key is left
   out. A [Ratio]
   row divides one row's value by the sum of others' (0 when that sum is
   0), so a federated ratio is recomputed from summed counters. *)
type row =
  | Family of {
      key : string;
      name : string;
      help : string;
      counter : bool;
      shape : shape;
      read : t -> Expo.sample list;
    }
  | Ratio of { key : string; num : row; den : row list }

let one value = [ { Expo.labels = []; value } ]
let fi = float_of_int

let count key name help f =
  Family
    { key; name; help; counter = true; shape = Int;
      read = (fun t -> one (fi (f t))) }

let handle key name help sel =
  count key name help (fun t -> Counter.value (sel t.counters))

(* A service event counter, exported as [parcfl_svc_<key>_total]. *)
let svc key sel =
  handle key (Printf.sprintf "parcfl_svc_%s_total" key)
    ("Service counter: " ^ key) sel

let gauge ?(shape = Int) key name help read =
  Family { key; name; help; counter = false; shape; read }

(* The live oracle's shape: no sample, and so no key, when none is live. *)
let oracle_gauge ?shape key name help f =
  gauge ?shape key name help (fun t ->
      match Engine.oracle t.engine with Some o -> one (f o) | None -> [])

let cache_hits = svc "cache_hits" (fun c -> c.cache_hits)
let cache_misses = svc "cache_misses" (fun c -> c.cache_misses)
let batches = svc "batches" (fun c -> c.batches)
let batched_queries = svc "batched_queries" (fun c -> c.batched_queries)
let stage i key = svc key (fun c -> c.stage_us.(i))

(* The [stats] payload, in wire order. *)
let rows =
  [
    svc "admitted" (fun c -> c.admitted);
    svc "rejected" (fun c -> c.rejected);
    cache_hits;
    cache_misses;
    svc "completed" (fun c -> c.completed);
    svc "timeouts_budget" (fun c -> c.timeouts_budget);
    svc "timeouts_deadline" (fun c -> c.timeouts_deadline);
    batches;
    batched_queries;
    svc "coalesced" (fun c -> c.coalesced);
    svc "flushes_full" (fun c -> c.flushes_full);
    svc "flushes_idle" (fun c -> c.flushes_idle);
    svc "flushes_forced" (fun c -> c.flushes_forced);
    handle "sched_groups" "parcfl_sched_groups_total"
      "Scheduling units executed across all batches" (fun c ->
        c.sched_groups);
    handle "early_terminations" "parcfl_sched_early_terminations_total"
      "Queries cut short by the early-termination rule" (fun c ->
        c.early_terminations);
    stage 0 "stage_queue_wait_us";
    stage 1 "stage_batch_wait_us";
    stage 2 "stage_solve_us";
    stage 3 "stage_respond_us";
    handle "oracle_hits" "parcfl_oracle_hits_total"
      "Queries answered by the O(1) oracle tier" (fun c -> c.oracle_hits);
    handle "oracle_misses" "parcfl_oracle_misses_total"
      "Oracle-eligible queries refined past the tier (budget/deadline)"
      (fun c -> c.oracle_misses);
    svc "explains_ok" (fun c -> c.explains_ok);
    svc "explains_miss" (fun c -> c.explains_miss);
    Ratio
      { key = "cache_hit_rate"; num = cache_hits;
        den = [ cache_hits; cache_misses ] };
    Ratio { key = "mean_batch_size"; num = batched_queries; den = [ batches ] };
    gauge "queue_depth" "parcfl_svc_queue_depth" "Admission queue depth"
      (fun t -> one (fi (Admission.depth t.queue)));
    gauge "cache_size" "parcfl_cache_size" "Result-cache entries" (fun t ->
        one (fi (Cache.size t.cache)));
    gauge ~shape:Float "uptime_s" "parcfl_svc_uptime_seconds"
      "Seconds since service start" (fun t ->
        one (Float.max 0.0 (Unix.gettimeofday () -. t.created)));
    gauge "jmp_edges" "parcfl_jmp_edges" "jmp records held in the store"
      (fun t -> one (fi (Engine.jmp_edges t.engine)));
    count "jmp_hits" "parcfl_jmp_hits_total"
      "jmp-store lookups that found a record" (fun t ->
        Engine.jmp_hits t.engine);
    count "jmp_misses" "parcfl_jmp_misses_total"
      "jmp-store lookups that found nothing" (fun t ->
        Engine.jmp_misses t.engine);
    count "jmp_finished" "parcfl_jmp_finished_total"
      "Finished jmp records accepted" (fun t -> Engine.jmp_finished t.engine);
    count "jmp_unfinished" "parcfl_jmp_unfinished_total"
      "Unfinished jmp records accepted" (fun t ->
        Engine.jmp_unfinished t.engine);
    count "cache_evictions" "parcfl_cache_evictions_total"
      "Entries removed by capacity sweeps" (fun t -> Cache.evictions t.cache);
    gauge ~shape:Float "steps_per_second" "parcfl_svc_steps_per_second"
      "EWMA of observed solver traversal rate" (fun t ->
        one
          (Option.value (Engine.steps_per_second t.engine) ~default:Float.nan));
    gauge "threads" "parcfl_svc_threads" "Engine domain pool size" (fun t ->
        one (fi (Engine.threads t.engine)));
    gauge ~shape:(Label "mode") "mode" "parcfl_svc_info"
      "Service build info; the mode label names the scheduling mode" (fun t ->
        [
          {
            Expo.labels = [ ("mode", Mode.to_string (Engine.mode t.engine)) ];
            value = 1.0;
          };
        ]);
    gauge "oracle_live" "parcfl_oracle_live"
      "Whether the oracle tier is installed (1/0)" (fun t ->
        one (if Engine.oracle t.engine = None then 0.0 else 1.0));
    oracle_gauge ~shape:Float "oracle_build_seconds"
      "parcfl_oracle_build_seconds"
      "Wall seconds the offline decomposition took (0 if imported)"
      Parcfl_oracle.Oracle.build_seconds;
    oracle_gauge "oracle_compressed_bytes" "parcfl_oracle_compressed_bytes"
      "Bytes held by the shared rows plus the var->row table" (fun o ->
        fi (Parcfl_oracle.Oracle.compressed_bytes o));
    oracle_gauge "oracle_distinct_rows" "parcfl_oracle_distinct_rows"
      "Distinct points-to sets after row compression" (fun o ->
        fi (Parcfl_oracle.Oracle.distinct_rows o));
  ]

let key = function Family { key; _ } | Ratio { key; _ } -> key

let view fams =
  let by_name = Hashtbl.create 64 in
  List.iter
    (function
      | Expo.Counter { name; samples; _ } | Expo.Gauge { name; samples; _ }
        ->
          Hashtbl.replace by_name name samples
      | Expo.Histogram _ -> ())
    fams;
  let samples name =
    Option.value (Hashtbl.find_opt by_name name) ~default:[]
  in
  let value = function
    | Family { name; _ } ->
        List.find_map
          (fun s -> if s.Expo.labels = [] then Some s.Expo.value else None)
          (samples name)
    | Ratio _ -> None
  in
  let cell row =
    match row with
    | Family { name; shape = Label l; _ } ->
        List.find_map
          (fun s ->
            Option.map
              (fun v -> Json.String v)
              (List.assoc_opt l s.Expo.labels))
          (samples name)
    | Family { shape; _ } ->
        Option.map
          (fun v ->
            if not (Float.is_finite v) then Json.Null
            else if shape = Int then Json.Int (int_of_float v)
            else Json.Float v)
          (value row)
    | Ratio { num; den; _ } -> (
        match (value num, List.map value den) with
        | Some n, ds when List.for_all Option.is_some ds ->
            let d = List.fold_left (fun acc x -> acc +. Option.get x) 0.0 ds in
            Some (Json.Float (if d = 0.0 then 0.0 else n /. d))
        | _ -> None)
  in
  Json.Obj
    (List.filter_map
       (fun row -> Option.map (fun c -> (key row, c)) (cell row))
       rows)

(* One histogram family, one series per lifecycle stage. The buckets count
   microseconds (the service clock) but the family is named in base units,
   so the [le] bounds are scaled to seconds and the [sum] comes from the
   cumulative stage counters — which keeps [stats] and the exposition in
   exact agreement. *)
let stage_seconds_family t =
  let series =
    List.mapi
      (fun i stage ->
        let h = t.stage_hists.(i) in
        let buckets = Expo.cumulative_of_log2 ~le_scale:1e-6 h in
        let count =
          match List.rev buckets with (_, c) :: _ -> c | [] -> 0
        in
        {
          Expo.h_labels = [ ("stage", stage) ];
          h_buckets = buckets;
          h_count = count;
          h_sum = Some (fi (Counter.value t.counters.stage_us.(i)) /. 1e6);
        })
      Span.stage_names
  in
  Expo.Histogram
    {
      name = "parcfl_stage_seconds";
      help = "Per-request time spent in each service lifecycle stage";
      series;
    }

(* Everything the service knows, as Prometheus families: the [stats] rows,
   then what only the exposition carries. Collectors only read atomics
   and snapshot copies, so a scrape never blocks a solve. *)
let register_collectors t =
  let c = Expo.counter and g = Expo.gauge in
  Registry.register t.registry (fun () ->
      List.filter_map
        (fun row ->
          match row with
          | Ratio _ -> None
          | Family { name; help; counter; read; _ } ->
              let samples = read t in
              Some
                (if counter then Expo.Counter { name; help; samples }
                 else Expo.Gauge { name; help; samples }))
        rows);
  (* Latency/steps histograms, and the scheduler's unit sizes. *)
  Registry.register t.registry (fun () ->
      [
        Expo.histogram_of_log2 ~name:"parcfl_svc_latency_us"
          ~help:"Per-query service latency, microseconds (solved queries)"
          t.lat_hist;
        Expo.histogram_of_log2 ~name:"parcfl_svc_steps"
          ~help:"Per-query steps walked" t.steps_hist;
        Expo.histogram_of_log2 ~name:"parcfl_solver_minor_words_per_query"
          ~help:"Per-query minor-heap words allocated by the solver"
          t.minor_words_hist;
        Expo.histogram_of_log2 ~name:"parcfl_sched_group_size"
          ~help:"Scheduling-unit sizes (queries per unit)" t.group_hist;
      ]);
  (* Request lifecycle: stage decomposition + liveness. *)
  Registry.register t.registry (fun () ->
      [
        stage_seconds_family t;
        g ~name:"parcfl_svc_healthy"
          ~help:
            "Queue-starvation check (1 = ok, 0 = degraded: the oldest \
             admitted request has waited over 1 s)"
          (if health t ~now:(Unix.gettimeofday ()) = [] then 1.0 else 0.0);
      ]);
  (* Per-domain utilization: busy microseconds by worker. *)
  Registry.register t.registry (fun () ->
      List.init (Array.length t.busy_us) (fun w ->
          c
            ~labels:[ ("worker", string_of_int w) ]
            ~name:"parcfl_worker_busy_us_total"
            ~help:"Microseconds each domain spent inside queries"
            t.busy_us.(w)));
  (* Result cache: capacity and age-at-eviction. *)
  Registry.register t.registry (fun () ->
      [
        g ~name:"parcfl_cache_capacity" ~help:"Result-cache capacity"
          (fi (Cache.capacity t.cache));
        Expo.histogram_of_log2 ~name:"parcfl_cache_eviction_age_ticks"
          ~help:"Recency-tick age of entries at eviction"
          (Cache.eviction_age_hist t.cache);
      ]);
  (* Explain verb: chain depth and re-derivation latency. *)
  Registry.register t.registry (fun () ->
      [
        Expo.histogram_of_log2 ~name:"parcfl_witness_chain_depth"
          ~help:"Witness chain depth per successful explain (steps)"
          t.chain_hist;
        Expo.histogram_of_log2 ~name:"parcfl_witness_explain_latency_us"
          ~help:"Wall microseconds per explain re-derivation"
          t.explain_hist;
      ])

let create ?(config = default_config) ?tracer ~type_level pag =
  if config.max_batch <= 0 then
    invalid_arg "Svc.Service.create: max_batch must be > 0";
  if config.oracle && config.context_sensitive then
    invalid_arg
      "Svc.Service.create: the oracle holds the CI relation; a \
       context-sensitive service cannot host it";
  let solver_config =
    {
      (Config.with_budget config.max_budget Config.default) with
      Config.context_sensitive = config.context_sensitive;
    }
  in
  let engine =
    Engine.create ~mode:config.mode ~threads:config.threads
      ?tau_f:config.tau_f ?tau_u:config.tau_u ~solver_config ?tracer
      ~type_level pag
  in
  (* Warm start before any traffic: one whole-program kernel run builds
     the O(1) oracle tier. *)
  if config.oracle then Engine.warm_start engine;
  let buckets = Report.hist_buckets in
  let t =
    {
      cfg = config;
      engine;
      cache = Cache.create ~capacity:config.cache_capacity ();
      queue = Admission.create ();
      counters = make_counters ();
      created = Unix.gettimeofday ();
      slowlog = Slowlog.create ~capacity:config.slowlog_capacity;
      registry = Registry.create ();
      tracer;
      names = Names.of_pag pag;
      explain_hist = Array.make buckets 0;
      chain_hist = Array.make buckets 0;
      lat_hist = Array.make buckets 0;
      steps_hist = Array.make buckets 0;
      minor_words_hist = Array.make buckets 0;
      group_hist = Array.make buckets 0;
      stage_hists =
        Array.make_matrix (List.length Span.stage_names) buckets 0;
      busy_us = Array.make (Engine.threads engine) 0.0;
      draining = false;
    }
  in
  register_collectors t;
  t

let config t = t.cfg
let engine t = t.engine
let queue_depth t = Admission.depth t.queue
let slowlog t = t.slowlog
let registry t = t.registry
let metrics_text t = Registry.render t.registry

let stats t = view (Registry.collect t.registry)

(* The request's effective step budget: its own cap, the service ceiling,
   and — when it carries a deadline — the steps the engine's observed
   traversal rate says the remaining wall clock can afford. This is how a
   wall-clock deadline maps onto the solver's existing budget B. *)
let effective_budget t ~now ~budget ~deadline =
  let cap = Engine.max_budget t.engine in
  let b = match budget with Some b -> min b cap | None -> cap in
  match deadline with
  | None -> b
  | Some d ->
      min b (Engine.deadline_budget t.engine ~seconds_left:(d -. now))

let cache_key ~var ~budget = { Cache.ck_var = var; ck_budget = budget }

let deliver send r = send (Protocol.response_line r)

(* A points-to answer whose objects array is already rendered (an oracle
   row's cached array, or the engine's name tokens), blitted as is. *)
let answer t send ~id ~var ~objects ~cached ~steps ~latency_us ~breakdown =
  send
    (Protocol.answer_line ~id
       ~var:(Pag.var_name (Engine.pag t.engine) var)
       ~objects ~cached ~steps ~latency_us ~breakdown)

(* A solver outcome's reply: its answer, or a budget timeout. *)
let reply_outcome t send ~id ~cached ~latency_us ~breakdown
    (outcome : Query.outcome) =
  if outcome.Query.result = Query.Out_of_budget then
    deliver send
      (Protocol.Timeout { id; reason = `Budget; cached; latency_us; breakdown })
  else
    answer t send ~id ~var:outcome.Query.var
      ~objects:(Engine.objects_json t.engine outcome.Query.result)
      ~cached ~steps:outcome.Query.steps_used ~latency_us ~breakdown

let note_slowlog t ~id ~trace ~var ~budget ~steps ~latency_us ~breakdown
    ~outcome ~cached ~now =
  Slowlog.note t.slowlog
    {
      Slowlog.sl_id = id;
      sl_var = var;
      sl_budget = budget;
      sl_steps = steps;
      sl_latency_us = latency_us;
      sl_breakdown = breakdown;
      sl_outcome = outcome;
      sl_cached = cached;
      sl_trace = trace;
      sl_at = now;
    }

let observe_latency t latency_us =
  Histogram.observe t.lat_hist (int_of_float latency_us)

let observe_stages t bd =
  List.iteri
    (fun i v ->
      let us = max 0 (int_of_float v) in
      add t.counters.stage_us.(i) us;
      Histogram.observe t.stage_hists.(i) us)
    (Span.stage_values bd)

let note_trace t p =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Tracer.note_request tr
        ~id:(Option.value p.p_trace ~default:p.p_id)
        ~var:p.p_var p.p_span

(* A trace span for a request that never entered the pipeline (oracle-tier
   hit, explain): every stamp before solve-start stays on the admit point,
   so the rendered span shows zero queue and batch wait — the stage
   arithmetic and the trace lane agree that no batch was formed. *)
let note_point_trace t ~id ~trace ~var ~t0_us ~t1_us =
  match t.tracer with
  | None -> ()
  | Some tr ->
      let sp = Span.create ~admit_us:t0_us in
      Span.stamp_solve sp ~start_us:t0_us ~end_us:t1_us;
      Span.stamp_respond sp ~us:t1_us;
      Tracer.note_request tr ~id:(Option.value trace ~default:id) ~var sp

(* Final accounting for an admitted request: stamp respond, collapse the
   span, feed the latency/stage aggregates, remember the worst in the
   flight recorder, note the trace span, deliver. Reporting the clamped
   stage sum as the latency keeps "the breakdown sums to the latency"
   true by construction, even when a test drives the service with a
   logical clock while solve stamps are wall clock. *)
let finish t p ~respond_us ~steps ~outcome reply =
  let sp = p.p_span in
  Span.stamp_respond sp ~us:respond_us;
  let bd = Span.breakdown sp in
  let latency_us = Span.total_us bd in
  observe_latency t latency_us;
  observe_stages t bd;
  note_slowlog t ~id:p.p_id ~trace:p.p_trace
    ~var:(Pag.var_name (Engine.pag t.engine) p.p_var)
    ~budget:p.p_budget ~steps ~latency_us ~breakdown:bd ~outcome
    ~cached:false ~now:(respond_us /. 1e6);
  note_trace t p;
  reply ~latency_us ~breakdown:bd

let respond_timeout t ~respond_us ~steps p reason =
  bump
    (match reason with
    | `Deadline -> t.counters.timeouts_deadline
    | `Budget -> t.counters.timeouts_budget);
  finish t p ~respond_us ~steps
    ~outcome:
      (match reason with
      | `Deadline -> "timeout_deadline"
      | `Budget -> "timeout_budget")
    (fun ~latency_us ~breakdown ->
      deliver p.p_send
        (Protocol.Timeout
           { id = p.p_id; reason; cached = false; latency_us; breakdown }))

let run_batch t live =
  (* Coalesce duplicate variables: one solve serves every requester. *)
  let seen = Hashtbl.create 64 in
  let vars =
    List.filter_map
      (fun p ->
        if Hashtbl.mem seen p.p_var then None
        else begin
          Hashtbl.add seen p.p_var ();
          Some p.p_var
        end)
      live
    |> Array.of_list
  in
  bump t.counters.batches;
  add t.counters.batched_queries (List.length live);
  add t.counters.coalesced (List.length live - Array.length vars);
  let batch_budget =
    List.fold_left (fun acc p -> max acc p.p_budget) 1 live
  in
  (* Schedule-ordered: coalesced and about to enter the engine (which
     applies the precomputed plan). Real clock — this stamp only feeds the
     trace lane, never the breakdown arithmetic. *)
  let sched_us = Unix.gettimeofday () *. 1e6 in
  List.iter (fun p -> Span.stamp_sched p.p_span ~us:sched_us) live;
  let report = Engine.execute t.engine ~budget:batch_budget vars in
  add t.counters.sched_groups (Array.length report.Report.r_group_sizes);
  add t.counters.early_terminations (Report.n_early_terminations report);
  Array.iteri
    (fun i c -> t.steps_hist.(i) <- t.steps_hist.(i) + c)
    report.Report.r_steps_hist;
  Array.iteri
    (fun i c -> t.minor_words_hist.(i) <- t.minor_words_hist.(i) + c)
    report.Report.r_minor_words_hist;
  Array.iter (Histogram.observe t.group_hist) report.Report.r_group_sizes;
  Array.iteri
    (fun w b ->
      if w < Array.length t.busy_us then t.busy_us.(w) <- t.busy_us.(w) +. b)
    report.Report.r_worker_busy_us;
  let by_var = Hashtbl.create (Array.length vars) in
  Array.iteri
    (fun i (o : Query.outcome) ->
      Hashtbl.replace by_var o.Query.var (o, report.Report.r_queries.(i)))
    report.Report.r_outcomes;
  List.iter
    (fun p ->
      match Hashtbl.find_opt by_var p.p_var with
      | None ->
          (* Cannot happen: the runner answers every scheduled query or
             raises. Fail the request rather than hang the client. *)
          deliver p.p_send
            (Protocol.Error
               { id = Some p.p_id; reason = "internal: query lost in batch" })
      | Some (outcome, qs) ->
          let within_budget =
            outcome.Query.result <> Query.Out_of_budget
            && outcome.Query.steps_used <= p.p_budget
          in
          (* Cache whatever this solve proves about (var, budget): a
             completed answer within the request's budget, or — when the
             request's budget is exactly what the batch ran with — a
             genuine out-of-budget outcome. A tighter per-request budget
             that the solve overran is NOT cached as a failure: we never
             fabricate an outcome the solver did not produce. *)
          if within_budget then
            Cache.put t.cache
              (cache_key ~var:p.p_var ~budget:p.p_budget)
              outcome
          else if
            outcome.Query.result = Query.Out_of_budget
            && p.p_budget = batch_budget
          then
            Cache.put t.cache
              (cache_key ~var:p.p_var ~budget:p.p_budget)
              outcome;
          (* Solve stamps come straight from the runner's per-query
             start/end microseconds — the span costs the solver no extra
             clock reads. *)
          Span.stamp_solve p.p_span ~start_us:qs.Report.qs_start_us
            ~end_us:qs.Report.qs_end_us;
          let deadline_missed =
            match p.p_deadline with
            | Some d -> qs.Report.qs_end_us /. 1e6 > d
            | None -> false
          in
          let respond_us = Unix.gettimeofday () *. 1e6 in
          let steps = outcome.Query.steps_used in
          if deadline_missed then
            respond_timeout t ~respond_us ~steps p `Deadline
          else if not within_budget then
            respond_timeout t ~respond_us ~steps p `Budget
          else begin
            bump t.counters.completed;
            finish t p ~respond_us ~steps ~outcome:"ok"
              (fun ~latency_us ~breakdown ->
                reply_outcome t p.p_send ~id:p.p_id ~cached:false ~latency_us
                  ~breakdown outcome)
          end)
    live

let form_batch t ~now reason =
  if queue_depth t = 0 then 0
  else begin
    bump reason;
    let batch = Admission.take t.queue ~max:t.cfg.max_batch in
    let batch_us = now *. 1e6 in
    List.iter (fun p -> Span.stamp_batch p.p_span ~us:batch_us) batch;
    let live, expired =
      List.partition
        (fun p ->
          match p.p_deadline with Some d -> now <= d | None -> true)
        batch
    in
    List.iter
      (fun p ->
        (* Never solved: the whole latency is queue wait. Collapsing the
           remaining stamps onto the batch point makes the breakdown read
           solve = 0, respond = 0 — a queue death, not a slow solve. *)
        Span.stamp_sched p.p_span ~us:batch_us;
        Span.stamp_solve p.p_span ~start_us:batch_us ~end_us:batch_us;
        respond_timeout t ~respond_us:batch_us ~steps:0 p `Deadline)
      expired;
    if live <> [] then run_batch t live;
    List.length batch
  end

(* Work-conserving: the front end pumps once it has read all its ready
   input, so whatever is queued then forms a batch at once. Batches grow
   only as load makes them; [max_batch] is the one cap. *)
let pump t ~now =
  form_batch t ~now
    (if queue_depth t >= t.cfg.max_batch then t.counters.flushes_full
     else t.counters.flushes_idle)

let drain t ~now =
  while form_batch t ~now t.counters.flushes_forced > 0 do
    ()
  done

let draining t = t.draining

let export_oracle t = Engine.export_oracle t.engine

(* The tier is live exactly when the engine holds an oracle, so a
   successful import arms it even when the service was started without
   [config.oracle] — this is how cluster joiners receive the tier from
   replica 0 without re-running the kernel. *)
let import_oracle t text = Engine.import_oracle t.engine text

let shutdown t = Engine.shutdown t.engine

(* The O(1) answer tier: a budget-free, deadline-free query against a live
   oracle is answered from the shared rows without touching the cache, the
   queue or the solver. Refined requests (any budget or deadline) fall
   through — the oracle holds only the exhaustive CI answer, and a client
   asking for a budgeted approximation must get the solver's semantics.
   Latency is measured with its own wall-clock pair (never the service
   drive clock, which tests run logically), reported as pure solve time. *)
let oracle_answer t ~id ~trace ~var ~v send =
  let t0 = Unix.gettimeofday () in
  let objects = Engine.oracle_objects t.engine v in
  let latency_us = Float.max 0.0 ((Unix.gettimeofday () -. t0) *. 1e6) in
  bump t.counters.oracle_hits;
  bump t.counters.completed;
  (* Tier answers never form a batch: every stage except solve is pinned
     to 0 (never read from a Span, whose batch stamps would be meaningless
     here), and the trace span collapses its queue/batch points onto the
     start for the same reason. *)
  let breakdown =
    {
      Span.bd_queue_wait_us = 0.0;
      bd_batch_wait_us = 0.0;
      bd_solve_us = latency_us;
      bd_respond_us = 0.0;
    }
  in
  observe_latency t latency_us;
  observe_stages t breakdown;
  note_slowlog t ~id ~trace ~var ~budget:(Engine.max_budget t.engine)
    ~steps:0 ~latency_us ~breakdown ~outcome:"ok" ~cached:false
    ~now:(t0 +. (latency_us /. 1e6));
  note_point_trace t ~id ~trace ~var:v ~t0_us:(t0 *. 1e6)
    ~t1_us:((t0 *. 1e6) +. latency_us);
  answer t send ~id ~var:v ~objects ~cached:false ~steps:0 ~latency_us
    ~breakdown

(* The wire chain: one JSON object per PAG edge the witness follows, in
   traversal order (query variable towards the allocation). Each carries
   the edge kind, its stable id over the frozen PAG's numbering
   ({!Pag.edge_id}), endpoint names, the field/site where the kind has
   one, and [ctx] — the context frames (call-site stack, top first) the
   traversal held when it crossed the edge. A heap step expands to its
   matched load/store pair; the chain closes with the holder's allocation
   edge. *)
let chain_json t (w : Solver.Witness.t) =
  let open Solver.Witness in
  let pag = Engine.pag t.engine in
  let store = Engine.ctx_store t.engine in
  let vn v = Json.String (Pag.var_name pag v) in
  let ctx_json c =
    Json.List (List.map (fun s -> Json.Int s) (Ctx.to_list store c))
  in
  let edge kind e ctx fields =
    let eid =
      match Pag.edge_id pag e with Some i -> Json.Int i | None -> Json.Null
    in
    Json.Obj
      (("kind", Json.String kind) :: ("edge", eid)
      :: (fields @ [ ("ctx", ctx_json ctx) ]))
  in
  let rec go prev = function
    | [] ->
        [
          edge "new"
            (Pag.New { dst = prev.var; obj = w.obj })
            w.obj_ctx
            [
              ("dst", vn prev.var);
              ("obj", Json.String (Pag.obj_name pag w.obj));
            ];
        ]
    | cur :: rest ->
        let es =
          match cur.via with
          | Start -> []  (* malformed; replay rejects it *)
          | Assign ->
              [
                edge "assign"
                  (Pag.Assign { dst = prev.var; src = cur.var })
                  cur.ctx
                  [ ("dst", vn prev.var); ("src", vn cur.var) ];
              ]
          | Global ->
              [
                edge "assign_g"
                  (Pag.Assign_global { dst = prev.var; src = cur.var })
                  cur.ctx
                  [ ("dst", vn prev.var); ("src", vn cur.var) ];
              ]
          | Param i ->
              [
                edge "param"
                  (Pag.Param { dst = prev.var; site = i; src = cur.var })
                  cur.ctx
                  [
                    ("dst", vn prev.var); ("src", vn cur.var);
                    ("site", Json.Int i);
                  ];
              ]
          | Ret i ->
              [
                edge "ret"
                  (Pag.Ret { dst = prev.var; site = i; src = cur.var })
                  cur.ctx
                  [
                    ("dst", vn prev.var); ("src", vn cur.var);
                    ("site", Json.Int i);
                  ];
              ]
          | Heap { field; load_base; store_base } ->
              [
                edge "load"
                  (Pag.Load { dst = prev.var; base = load_base; field })
                  cur.ctx
                  [
                    ("dst", vn prev.var); ("base", vn load_base);
                    ("field", Json.Int field);
                  ];
                edge "store"
                  (Pag.Store { base = store_base; field; src = cur.var })
                  cur.ctx
                  [
                    ("base", vn store_base); ("src", vn cur.var);
                    ("field", Json.Int field);
                  ];
              ]
        in
        es @ go cur rest
  in
  Json.List (match w.steps with [] -> [] | first :: rest -> go first rest)

(* The explain verb's engine side: re-derive with tracing and answer with
   the chain. Synchronous and cold by design — the re-derivation shares
   nothing with the hot answer tiers, so the serve path costs nothing for
   it. *)
let explain t ~id ~var ~obj ~respond =
  match Names.var t.names var with
  | Error reason -> respond (Protocol.Error { id = Some id; reason })
  | Ok v -> (
      match Names.obj t.names obj with
      | Error reason -> respond (Protocol.Error { id = Some id; reason })
      | Ok o ->
          let t0 = Unix.gettimeofday () in
          let w = Engine.explain t.engine ~var:v ~obj:o in
          let t1 = Unix.gettimeofday () in
          let latency_us = Float.max 0.0 ((t1 -. t0) *. 1e6) in
          Histogram.observe t.explain_hist (int_of_float latency_us);
          note_point_trace t ~id ~trace:None ~var:v ~t0_us:(t0 *. 1e6)
            ~t1_us:(t1 *. 1e6);
          let var_name = Pag.var_name (Engine.pag t.engine) v in
          let obj_name = Pag.obj_name (Engine.pag t.engine) o in
          let reply =
            match w with
            | Some w ->
                bump t.counters.explains_ok;
                let depth = Solver.Witness.depth w in
                Histogram.observe t.chain_hist depth;
                Protocol.Explain_reply
                  {
                    id;
                    var = var_name;
                    obj = obj_name;
                    found = true;
                    depth;
                    latency_us;
                    chain = chain_json t w;
                  }
            | None ->
                bump t.counters.explains_miss;
                Protocol.Explain_reply
                  {
                    id;
                    var = var_name;
                    obj = obj_name;
                    found = false;
                    depth = 0;
                    latency_us;
                    chain = Json.List [];
                  }
          in
          respond reply)

let submit_line t ~now ~send req =
  let respond = deliver send in
  (* Pushback: with a full batch queued, solve it before handling anything
     else, so the queue never holds more than [max_batch] and a pipelined
     burst waits in its socket instead. *)
  (match req with
  | Protocol.Quit -> ()
  | _ -> if queue_depth t >= t.cfg.max_batch then ignore (pump t ~now));
  match req with
  | Protocol.Ping id -> respond (Protocol.Pong id)
  | Protocol.Explain { id; var; obj } -> explain t ~id ~var ~obj ~respond
  | Protocol.Stats id ->
      respond (Protocol.Stats_reply { id; stats = stats t })
  | Protocol.Metrics id ->
      respond (Protocol.Metrics_reply { id; body = metrics_text t })
  | Protocol.Slowlog { id; limit } ->
      respond
        (Protocol.Slowlog_reply
           { id; entries = Slowlog.to_json ?limit t.slowlog })
  | Protocol.Health id ->
      let reasons = health t ~now in
      respond (Protocol.Health_reply { id; healthy = reasons = []; reasons })
  | Protocol.Drain id ->
      (* Stop admitting first, then finish everything already admitted, so
         the completed count in the reply is exact and nothing can slip in
         behind the drain (the service is driven from one thread). *)
      t.draining <- true;
      let pending = queue_depth t in
      drain t ~now;
      respond (Protocol.Drained { id; completed = pending })
  | Protocol.Quit -> ()
  | Protocol.Query { id; _ } when t.draining ->
      bump t.counters.rejected;
      respond (Protocol.Rejected { id; reason = "draining" })
  | Protocol.Query { id; var; budget; deadline_ms; trace } -> (
      match Names.var t.names var with
      | Error reason -> respond (Protocol.Error { id = Some id; reason })
      | Ok v
        when Engine.oracle t.engine <> None
             && budget = None && deadline_ms = None ->
          oracle_answer t ~id ~trace ~var ~v send
      | Ok v -> (
          (* Past a live tier only a refined request gets here: a miss. *)
          if Engine.oracle t.engine <> None then bump t.counters.oracle_misses;
          let deadline = Option.map (fun d -> now +. (d /. 1000.0)) deadline_ms in
          let eff = effective_budget t ~now ~budget ~deadline in
          match Cache.find t.cache (cache_key ~var:v ~budget:eff) with
          | Some outcome ->
              bump t.counters.cache_hits;
              let outcome_str =
                if outcome.Query.result = Query.Out_of_budget then begin
                  bump t.counters.timeouts_budget;
                  "timeout_budget"
                end
                else begin
                  bump t.counters.completed;
                  "ok"
                end
              in
              observe_latency t 0.0;
              note_slowlog t ~id ~trace ~var ~budget:eff
                ~steps:outcome.Query.steps_used ~latency_us:0.0
                ~breakdown:Span.zero ~outcome:outcome_str ~cached:true ~now;
              reply_outcome t send ~id ~cached:true ~latency_us:0.0
                ~breakdown:Span.zero outcome
          | None ->
              bump t.counters.cache_misses;
              let p =
                {
                  p_id = id;
                  p_trace = trace;
                  p_var = v;
                  p_budget = eff;
                  p_deadline = deadline;
                  p_arrival = now;
                  p_span = Span.create ~admit_us:(now *. 1e6);
                  p_send = send;
                }
              in
              Admission.add t.queue p;
              bump t.counters.admitted))

(* The in-process adapter: every reply line, read back as a value. *)
let submit t ~now ~respond req =
  submit_line t ~now
    ~send:(fun line ->
      match Protocol.response_of_string line with
      | Ok r -> respond r
      | Error e ->
          failwith
            (Printf.sprintf "Svc.Service.submit: unreadable reply %S: %s" line
               e))
    req

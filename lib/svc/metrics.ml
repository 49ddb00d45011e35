module Counter = Parcfl_conc.Counter
module Json = Parcfl_obs.Json

type counter =
  | Admitted
  | Rejected
  | Cache_hit
  | Cache_miss
  | Completed
  | Timeout_budget
  | Timeout_deadline
  | Batches
  | Batched_queries
  | Coalesced
  | Flush_full
  | Flush_idle
  | Flush_forced
  | Sched_groups
  | Early_terms
  | Stage_queue_us
  | Stage_batch_us
  | Stage_solve_us
  | Stage_respond_us
  | Oracle_hit
  | Oracle_miss
  | Oracle_fallback
  | Explain_ok
  | Explain_miss

let all =
  [
    Admitted; Rejected; Cache_hit; Cache_miss; Completed; Timeout_budget;
    Timeout_deadline; Batches; Batched_queries; Coalesced; Flush_full;
    Flush_idle; Flush_forced; Sched_groups; Early_terms; Stage_queue_us;
    Stage_batch_us; Stage_solve_us; Stage_respond_us; Oracle_hit;
    Oracle_miss; Oracle_fallback; Explain_ok; Explain_miss;
  ]

let index = function
  | Admitted -> 0
  | Rejected -> 1
  | Cache_hit -> 2
  | Cache_miss -> 3
  | Completed -> 4
  | Timeout_budget -> 5
  | Timeout_deadline -> 6
  | Batches -> 7
  | Batched_queries -> 8
  | Coalesced -> 9
  | Flush_full -> 10
  | Flush_idle -> 11
  | Flush_forced -> 12
  | Sched_groups -> 13
  | Early_terms -> 14
  | Stage_queue_us -> 15
  | Stage_batch_us -> 16
  | Stage_solve_us -> 17
  | Stage_respond_us -> 18
  | Oracle_hit -> 19
  | Oracle_miss -> 20
  | Oracle_fallback -> 21
  | Explain_ok -> 22
  | Explain_miss -> 23

let name = function
  | Admitted -> "admitted"
  | Rejected -> "rejected"
  | Cache_hit -> "cache_hits"
  | Cache_miss -> "cache_misses"
  | Completed -> "completed"
  | Timeout_budget -> "timeouts_budget"
  | Timeout_deadline -> "timeouts_deadline"
  | Batches -> "batches"
  | Batched_queries -> "batched_queries"
  | Coalesced -> "coalesced"
  | Flush_full -> "flushes_full"
  | Flush_idle -> "flushes_idle"
  | Flush_forced -> "flushes_forced"
  | Sched_groups -> "sched_groups"
  | Early_terms -> "early_terminations"
  | Stage_queue_us -> "stage_queue_wait_us"
  | Stage_batch_us -> "stage_batch_wait_us"
  | Stage_solve_us -> "stage_solve_us"
  | Stage_respond_us -> "stage_respond_us"
  | Oracle_hit -> "oracle_hits"
  | Oracle_miss -> "oracle_misses"
  | Oracle_fallback -> "oracle_fallbacks"
  | Explain_ok -> "explains_ok"
  | Explain_miss -> "explains_miss"

type t = { counters : Counter.t array; created : float }

let create () =
  {
    counters = Array.init (List.length all) (fun _ -> Counter.create ());
    created = Unix.gettimeofday ();
  }

let incr ?(worker = 0) t c = Counter.incr t.counters.(index c) ~worker
let add ?(worker = 0) t c n = Counter.add t.counters.(index c) ~worker n
let get t c = Counter.value t.counters.(index c)
let uptime_s t = Float.max 0.0 (Unix.gettimeofday () -. t.created)

let hit_rate get =
  let h = get Cache_hit and m = get Cache_miss in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let batch_mean get =
  let b = get Batches in
  if b = 0 then 0.0 else float_of_int (get Batched_queries) /. float_of_int b

let ratios = [ ("cache_hit_rate", hit_rate); ("mean_batch_size", batch_mean) ]
let cache_hit_rate t = hit_rate (get t)

let to_json ?(extra = []) t ~queue_depth ~cache_size ~in_flight =
  Json.Obj
    (List.map (fun c -> (name c, Json.Int (get t c))) all
    @ List.map (fun (k, f) -> (k, Json.Float (f (get t)))) ratios
    @ [
        ("queue_depth", Json.Int queue_depth);
        ("in_flight", Json.Int in_flight);
        ("cache_size", Json.Int cache_size);
        ("uptime_s", Json.Float (uptime_s t));
      ]
    @ extra)

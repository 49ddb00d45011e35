module Stats = Parcfl_cfl.Stats
module Query = Parcfl_cfl.Query
module Histogram = Parcfl_stats.Histogram
module Json = Parcfl_obs.Json

type query_stat = {
  qs_var : Parcfl_pag.Pag.var;
  qs_completed : bool;
  qs_steps_walked : int;
  qs_steps_used : int;
  qs_early_terminated : bool;
  qs_start_us : float;
  qs_end_us : float;
  qs_latency_us : float;
  qs_minor_words : int;
}

type t = {
  r_mode : Mode.t;
  r_threads : int;
  r_wall_seconds : float;
  r_sim_makespan : int option;
  r_stats : Stats.snapshot;
  r_n_jumps_finished : int;
  r_n_jumps_unfinished : int;
  r_mean_group_size : float;
  r_latency_hist : int array;
  r_steps_hist : int array;
  r_minor_words_hist : int array;
  r_group_sizes : int array;
  r_worker_busy_us : float array;
  r_queries : query_stat array;
  r_outcomes : Query.outcome array;
}

let hist_buckets = 24

let n_jumps t = t.r_n_jumps_finished + t.r_n_jumps_unfinished

let total_walked t = t.r_stats.Stats.s_steps_walked

let n_early_terminations t = t.r_stats.Stats.s_early_terminations

let n_completed t =
  Array.fold_left
    (fun acc q -> if q.qs_completed then acc + 1 else acc)
    0 t.r_queries

let total_minor_words t =
  Array.fold_left (fun acc q -> acc + q.qs_minor_words) 0 t.r_queries

let minor_words_per_query t =
  let n = Array.length t.r_queries in
  if n = 0 then 0.0 else float_of_int (total_minor_words t) /. float_of_int n

(* Fraction of the total step demand served by jmp shortcuts instead of
   traversal; unlike the paper's R_S (= jumped/walked, which exceeds 1 once
   shortcuts save more than remains to walk) this is a proper ratio. *)
let ratio_saved t =
  let walked = t.r_stats.Stats.s_steps_walked
  and jumped = t.r_stats.Stats.s_steps_jumped in
  if walked + jumped = 0 then 0.0
  else float_of_int jumped /. float_of_int (walked + jumped)

let results_by_var t =
  let tbl = Hashtbl.create (Array.length t.r_outcomes) in
  Array.iter
    (fun (o : Query.outcome) -> Hashtbl.replace tbl o.Query.var o.Query.result)
    t.r_outcomes;
  tbl

let pp_summary ppf t =
  Format.fprintf ppf
    "mode=%a threads=%d queries=%d completed=%d walked=%d jumps=%d+%d \
     ETs=%d wall=%.3fs%a"
    Mode.pp t.r_mode t.r_threads
    (Array.length t.r_queries)
    (n_completed t) (total_walked t) t.r_n_jumps_finished
    t.r_n_jumps_unfinished
    (n_early_terminations t)
    t.r_wall_seconds
    (fun ppf -> function
      | Some m -> Format.fprintf ppf " sim_makespan=%d" m
      | None -> ())
    t.r_sim_makespan

let pp_histograms ppf t =
  Format.fprintf ppf "per-query cost histograms (log2 buckets):@.";
  Histogram.render ppf ~bucket_label:Histogram.log2_label
    ~series:
      [
        ((if t.r_sim_makespan = None then "latency_us" else "latency_steps"),
         t.r_latency_hist);
        ("steps", t.r_steps_hist);
      ]

let json_of_int_array a =
  Json.List (Array.to_list (Array.map (fun v -> Json.Int v) a))

let to_json ?bench t =
  let s = t.r_stats in
  Json.Obj
    ((match bench with
     | Some b -> [ ("bench", Json.String b) ]
     | None -> [])
    @ [
        ("mode", Json.String (Mode.to_string t.r_mode));
        ("threads", Json.Int t.r_threads);
        ("sim", Json.Bool (t.r_sim_makespan <> None));
        ("wall_seconds", Json.Float t.r_wall_seconds);
        ( "sim_makespan",
          match t.r_sim_makespan with
          | Some m -> Json.Int m
          | None -> Json.Null );
        ("queries", Json.Int (Array.length t.r_queries));
        ("completed", Json.Int (n_completed t));
        ("steps_walked", Json.Int s.Stats.s_steps_walked);
        ("steps_jumped", Json.Int s.Stats.s_steps_jumped);
        ("jumps_finished", Json.Int t.r_n_jumps_finished);
        ("jumps_unfinished", Json.Int t.r_n_jumps_unfinished);
        ("early_terminations", Json.Int s.Stats.s_early_terminations);
        ("ratio_saved", Json.Float (ratio_saved t));
        ("minor_words", Json.Int (total_minor_words t));
        ("minor_words_per_query", Json.Float (minor_words_per_query t));
        (* Steps/sec only means something for real executions: simulated
           rows spend their wall clock running the event model, not
           traversing. *)
        ( "steps_per_second",
          if t.r_sim_makespan <> None || t.r_wall_seconds <= 0.0 then Json.Null
          else
            Json.Float
              (float_of_int s.Stats.s_steps_walked /. t.r_wall_seconds) );
        ("mean_group_size", Json.Float t.r_mean_group_size);
        ("n_groups", Json.Int (Array.length t.r_group_sizes));
        ( "worker_busy_us",
          Json.List
            (Array.to_list
               (Array.map (fun v -> Json.Float v) t.r_worker_busy_us)) );
        ("latency_hist", json_of_int_array t.r_latency_hist);
        ("steps_hist", json_of_int_array t.r_steps_hist);
        ("minor_words_hist", json_of_int_array t.r_minor_words_hist);
      ])

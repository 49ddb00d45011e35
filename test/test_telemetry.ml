(* Telemetry: Prometheus text exposition (lib/telemetry), the collector
   registry, the slow-query flight recorder, and the tracer's
   dropped-event footer. The exposition tests
   diff rendered text because the renderer promises deterministic bytes. *)

module P = Parcfl
module E = P.Expo
module Proto = P.Svc_protocol

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains what needle text =
  if not (contains ~needle text) then
    Alcotest.failf "%s: %S not found in:\n%s" what needle text

(* Drop the one line that tracks wall-clock time, so two scrapes of an
   unchanged service compare equal. *)
let strip_uptime text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         not (String.length l >= 26 && String.sub l 0 26 = "parcfl_svc_uptime_seconds "))
  |> String.concat "\n"

(* --------------------------- exposition ---------------------------- *)

let test_sanitize_and_escape () =
  Alcotest.(check string) "dots and dashes" "foo_bar_baz"
    (E.sanitize_name "foo.bar-baz");
  Alcotest.(check string) "leading digit" "_9lives" (E.sanitize_name "9lives");
  Alcotest.(check string) "empty" "_" (E.sanitize_name "");
  Alcotest.(check string) "valid untouched" "ok_name:x9"
    (E.sanitize_name "ok_name:x9");
  Alcotest.(check string) "label escapes" "a\\\\b\\\"c\\nd"
    (E.escape_label_value "a\\b\"c\nd");
  (* HELP text keeps quotes (not in label position) but stays on one line. *)
  Alcotest.(check string) "help escapes" "say \"hi\"\\n"
    (E.escape_help "say \"hi\"\n")

let test_render_deterministic_and_sorted () =
  let families =
    [
      E.gauge ~name:"zz_last" ~help:"z" 1.0;
      E.counter ~name:"aa_first_total" ~help:"a" 2.0;
      E.Counter
        {
          name = "mid_total";
          help = "m";
          samples =
            [
              { E.labels = [ ("shard", "1") ]; value = 1.0 };
              { E.labels = [ ("shard", "0") ]; value = 3.0 };
            ];
        };
    ]
  in
  let text = E.render families in
  let text' = E.render (List.rev families) in
  Alcotest.(check string) "order-insensitive input, identical bytes" text
    text';
  (* Families come out sorted by name, samples sorted by label set. *)
  let idx needle =
    let rec find i =
      if i + String.length needle > String.length text then -1
      else if String.sub text i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  let a = idx "aa_first_total 2" in
  let m0 = idx "mid_total{shard=\"0\"} 3" in
  let m1 = idx "mid_total{shard=\"1\"} 1" in
  let z = idx "zz_last 1" in
  List.iter
    (fun (what, i) -> if i < 0 then Alcotest.failf "missing line: %s" what)
    [ ("aa", a); ("mid shard 0", m0); ("mid shard 1", m1); ("zz", z) ];
  Alcotest.(check bool) "families sorted" true (a < m0 && m1 < z);
  Alcotest.(check bool) "samples sorted by labels" true (m0 < m1)

let test_render_nonfinite () =
  let text =
    E.render
      [
        E.gauge ~name:"g_nan" ~help:"h" Float.nan;
        E.gauge ~name:"g_pinf" ~help:"h" Float.infinity;
        E.gauge ~name:"g_ninf" ~help:"h" Float.neg_infinity;
      ]
  in
  check_contains "NaN" "g_nan NaN\n" text;
  check_contains "+Inf" "g_pinf +Inf\n" text;
  check_contains "-Inf" "g_ninf -Inf\n" text

let test_cumulative_buckets () =
  (* log2 bucket i counts [2^i, 2^(i+1)); cumulative le = 2^(i+1). *)
  let buckets = E.cumulative_of_log2 [| 3; 0; 2; 1 |] in
  let les = List.map fst buckets and counts = List.map snd buckets in
  Alcotest.(check (list int)) "cumulative counts" [ 3; 3; 5; 6 ] counts;
  (match les with
  | [ a; b; c; inf ] ->
      Alcotest.(check (float 0.0)) "le0" 2.0 a;
      Alcotest.(check (float 0.0)) "le1" 4.0 b;
      Alcotest.(check (float 0.0)) "le2" 8.0 c;
      Alcotest.(check bool) "last is +Inf" true (inf = Float.infinity)
  | _ -> Alcotest.fail "expected 4 buckets");
  let rec monotone = function
    | (le1, c1) :: ((le2, c2) :: _ as rest) ->
        le1 < le2 && c1 <= c2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing le, non-decreasing count" true
    (monotone buckets);
  Alcotest.(check bool) "empty array is one +Inf bucket of 0" true
    (E.cumulative_of_log2 [||] = [ (Float.infinity, 0) ])

let test_histogram_render () =
  let text =
    E.render
      [
        E.histogram_of_log2 ~sum:12.5 ~name:"lat_us" ~help:"latency"
          [| 2; 1; 0; 4 |];
      ]
  in
  check_contains "type line" "# TYPE lat_us histogram\n" text;
  check_contains "first bucket" "lat_us_bucket{le=\"2\"} 2\n" text;
  check_contains "mid bucket" "lat_us_bucket{le=\"4\"} 3\n" text;
  check_contains "inf bucket" "lat_us_bucket{le=\"+Inf\"} 7\n" text;
  check_contains "sum" "lat_us_sum 12.5\n" text;
  check_contains "count" "lat_us_count 7\n" text

(* ----------------------------- parsing ----------------------------- *)

(* The property the cluster router's federation rests on: the parser
   reads back exactly what the renderer wrote, so render → parse →
   re-render is byte-identical. *)
let check_roundtrip what families =
  let text = E.render families in
  match E.parse_families text with
  | Error e -> Alcotest.failf "%s: parse failed: %s\n%s" what e text
  | Ok parsed ->
      Alcotest.(check string)
        (what ^ ": render/parse/render fixpoint")
        text (E.render parsed)

let test_parse_roundtrip () =
  check_roundtrip "counters"
    [
      E.counter ~name:"plain_total" ~help:"a counter" 42.0;
      E.Counter
        {
          name = "labeled_total";
          help = "labels with every escape: \\ \" and a\nnewline";
          samples =
            [
              { E.labels = [ ("path", "a\\b") ]; value = 1.0 };
              { E.labels = [ ("path", "say \"hi\"") ]; value = 2.0 };
              { E.labels = [ ("path", "two\nlines") ]; value = 3.0 };
              { E.labels = [ ("k", "v"); ("k2", "v2") ]; value = 0.5 };
            ];
        };
    ];
  check_roundtrip "gauges incl. non-finite and non-integer"
    [
      E.gauge ~name:"g_nan" ~help:"h" Float.nan;
      E.gauge ~name:"g_pinf" ~help:"h" Float.infinity;
      E.gauge ~name:"g_ninf" ~help:"h" Float.neg_infinity;
      E.gauge ~name:"g_frac" ~help:"h" 0.034782608695652;
      E.gauge ~labels:[ ("replica", "3") ] ~name:"g_lab" ~help:"h" 7.0;
    ];
  check_roundtrip "histograms"
    [
      E.histogram_of_log2 ~sum:12.5 ~name:"lat_us" ~help:"latency"
        [| 2; 1; 0; 4 |];
      E.histogram_of_log2 ~labels:[ ("stage", "solve") ] ~name:"stage_us"
        ~help:"no sum tracked" [| 1; 1 |];
      E.Histogram
        {
          name = "multi_series";
          help = "two label sets in one family";
          series =
            [
              {
                E.h_labels = [ ("replica", "0") ];
                h_buckets = [ (2.0, 1); (Float.infinity, 4) ];
                h_count = 4;
                h_sum = Some 9.25;
              };
              {
                E.h_labels = [ ("replica", "1") ];
                h_buckets = [ (2.0, 0); (Float.infinity, 2) ];
                h_count = 2;
                h_sum = None;
              };
            ];
        };
    ];
  check_roundtrip "empty exposition" [];
  (* Parsed structure is faithful, not just re-renderable. *)
  let fams =
    [ E.counter ~labels:[ ("a", "x\ny") ] ~name:"c_total" ~help:"h" 3.0 ]
  in
  match E.parse_families (E.render fams) with
  | Ok [ E.Counter { name = "c_total"; help = "h"; samples } ] ->
      Alcotest.(check bool) "label value unescaped" true
        (samples = [ { E.labels = [ ("a", "x\ny") ]; value = 3.0 } ])
  | Ok _ -> Alcotest.fail "unexpected parse shape"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_rejects_malformed () =
  let expect_error what text =
    match E.parse_families text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed input accepted" what
  in
  expect_error "garbage" "not an exposition\n";
  expect_error "sample before any header" "x_total 1\n";
  expect_error "TYPE before HELP" "# TYPE x_total counter\nx_total 1\n";
  expect_error "TYPE name mismatch"
    "# HELP a_total h\n# TYPE b_total counter\n";
  expect_error "unknown kind" "# HELP x h\n# TYPE x summary\nx 1\n";
  expect_error "sample from another family"
    "# HELP a_total h\n# TYPE a_total counter\nb_total 1\n";
  expect_error "missing value" "# HELP x h\n# TYPE x gauge\nx\n";
  expect_error "bad value" "# HELP x h\n# TYPE x gauge\nx pancake\n";
  expect_error "unterminated label value"
    "# HELP x h\n# TYPE x gauge\nx{a=\"b} 1\n";
  expect_error "unknown escape" "# HELP x h\n# TYPE x gauge\nx{a=\"\\t\"} 1\n";
  expect_error "histogram series left open"
    "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n";
  expect_error "bucket without le"
    "# HELP h h\n# TYPE h histogram\nh_bucket 1\nh_count 1\n";
  (* Blank lines and foreign comments are legal exposition noise. *)
  match
    E.parse_families
      "\n# a scrape comment\n# HELP x_total h\n# TYPE x_total counter\n\nx_total 1\n"
  with
  | Ok [ E.Counter { samples = [ { E.value = 1.0; _ } ]; _ } ] -> ()
  | Ok _ -> Alcotest.fail "unexpected shape for commented exposition"
  | Error e -> Alcotest.failf "comments/blank lines rejected: %s" e

let test_registry () =
  let r = P.Telemetry.create () in
  P.Telemetry.register r (fun () ->
      [ E.counter ~name:"good_total" ~help:"fine" 1.0 ]);
  (* A faulty collector must not take down the scrape. *)
  P.Telemetry.register r (fun () -> failwith "collector crash");
  P.Telemetry.register r (fun () ->
      [ E.gauge ~name:"also_good" ~help:"fine" 2.0 ]);
  let text = P.Telemetry.render r in
  check_contains "first collector" "good_total 1\n" text;
  check_contains "third collector" "also_good 2\n" text;
  Alcotest.(check int) "two families survive" 2
    (List.length (P.Telemetry.collect r))

(* ----------------------------- slowlog ----------------------------- *)

let entry ?(cached = false) ?(outcome = "ok") ~id ~lat ~at () =
  {
    P.Svc_slowlog.sl_id = id;
    sl_var = Printf.sprintf "v%d" id;
    sl_budget = 100;
    sl_steps = 10;
    sl_latency_us = lat;
    sl_breakdown =
      {
        P.Svc_span.bd_queue_wait_us = lat /. 2.0;
        bd_batch_wait_us = 0.0;
        bd_solve_us = lat /. 2.0;
        bd_respond_us = 0.0;
      };
    sl_outcome = outcome;
    sl_cached = cached;
    sl_trace = None;
    sl_at = at;
  }

let test_slowlog_bound_and_order () =
  let sl = P.Svc_slowlog.create ~capacity:4 in
  (* Offer 10 queries with latencies 10, 20, ..., 100 us. *)
  for i = 1 to 10 do
    P.Svc_slowlog.note sl
      (entry ~id:i ~lat:(float_of_int (i * 10)) ~at:(float_of_int i) ())
  done;
  Alcotest.(check int) "bounded" 4 (P.Svc_slowlog.size sl);
  let worst = P.Svc_slowlog.worst sl in
  Alcotest.(check (list int)) "four slowest, slowest first"
    [ 10; 9; 8; 7 ]
    (List.map (fun e -> e.P.Svc_slowlog.sl_id) worst);
  (* A query faster than every resident is not kept. *)
  P.Svc_slowlog.note sl (entry ~id:11 ~lat:1.0 ~at:11.0 ());
  Alcotest.(check (list int)) "fast newcomer rejected"
    [ 10; 9; 8; 7 ]
    (List.map
       (fun e -> e.P.Svc_slowlog.sl_id)
       (P.Svc_slowlog.worst sl));
  (* A slower one evicts the current fastest resident (id 7). *)
  P.Svc_slowlog.note sl (entry ~id:12 ~lat:75.0 ~at:12.0 ());
  Alcotest.(check (list int)) "slow newcomer evicts fastest"
    [ 10; 9; 8; 12 ]
    (List.map
       (fun e -> e.P.Svc_slowlog.sl_id)
       (P.Svc_slowlog.worst sl));
  Alcotest.(check int) "limit truncates" 2
    (List.length (P.Svc_slowlog.worst ~limit:2 sl));
  (* Latency ties break newest-first. *)
  let sl2 = P.Svc_slowlog.create ~capacity:3 in
  P.Svc_slowlog.note sl2 (entry ~id:1 ~lat:50.0 ~at:1.0 ());
  P.Svc_slowlog.note sl2 (entry ~id:2 ~lat:50.0 ~at:2.0 ());
  Alcotest.(check (list int)) "ties newest first" [ 2; 1 ]
    (List.map
       (fun e -> e.P.Svc_slowlog.sl_id)
       (P.Svc_slowlog.worst sl2));
  (match P.Svc_slowlog.to_json ~limit:1 sl2 with
  | P.Json.List [ P.Json.Obj fields ] ->
      Alcotest.(check bool) "json id" true
        (List.assoc_opt "id" fields = Some (P.Json.Int 2))
  | _ -> Alcotest.fail "expected a one-element JSON list");
  P.Svc_slowlog.clear sl2;
  Alcotest.(check int) "clear" 0 (P.Svc_slowlog.size sl2)

(* ------------------------- tracer footer --------------------------- *)

let test_tracer_dropped_footer () =
  let t = P.Tracer.create ~capacity:4 ~workers:1 () in
  for i = 0 to 9 do
    P.Tracer.emit t ~worker:0 P.Tracer.Query_start ~var:i;
    P.Tracer.emit t ~worker:0 P.Tracer.Query_end ~var:i
  done;
  Alcotest.(check int) "dropped count" 16 (P.Tracer.n_dropped t);
  match P.Tracer.to_json t with
  | P.Json.Obj fields ->
      Alcotest.(check bool) "footer present" true
        (List.assoc_opt "droppedEvents" fields = Some (P.Json.Int 16))
  | _ -> Alcotest.fail "expected a JSON object"

(* ---------------------- service end to end ------------------------- *)

let tiny = lazy (Option.get (P.Suite.build_by_name "tiny"))

let make_service ?(oracle = false) () =
  let b = Lazy.force tiny in
  let config =
    {
      P.Service.default_config with
      P.Service.threads = 1;
      max_batch = 8;
      slowlog_capacity = 3;
      context_sensitive = not oracle;
      oracle;
    }
  in
  (b, P.Service.create ~config ~type_level:b.P.Suite.type_level b.P.Suite.pag)

let drive_queries svc queries =
  Array.iteri
    (fun i v ->
      P.Service.submit svc
        ~now:(float_of_int i)
        ~respond:(fun _ -> ())
        (Proto.Query
           {
             id = i;
             var = Printf.sprintf "#%d" v;
             budget = None;
             deadline_ms = None;
             trace = None;
           });
      ignore (P.Service.pump svc ~now:(float_of_int i)))
    queries

(* The golden shape of a service's telemetry: every [stats] key in wire
   order with its JSON kind, and the exposition's family names. A family
   exported twice, a key renamed, or a family added or dropped shows up
   here. A CI service with the oracle tier answers every plain query from
   the tier, so no batch runs and [steps_per_second] is [null]; a CS
   service has no live oracle, so the oracle-shape families carry no
   sample and their keys are absent. *)
let golden_stats ~oracle =
  let ints = List.map (fun k -> (k, "int")) in
  ints
    [
      "admitted"; "rejected"; "cache_hits"; "cache_misses"; "completed";
      "timeouts_budget"; "timeouts_deadline"; "batches"; "batched_queries";
      "coalesced"; "flushes_full"; "flushes_idle"; "flushes_forced";
      "sched_groups"; "early_terminations"; "stage_queue_wait_us";
      "stage_batch_wait_us"; "stage_solve_us"; "stage_respond_us";
      "oracle_hits"; "oracle_misses"; "explains_ok"; "explains_miss";
    ]
  @ [ ("cache_hit_rate", "float"); ("mean_batch_size", "float") ]
  @ ints [ "queue_depth"; "cache_size" ]
  @ [ ("uptime_s", "float") ]
  @ ints
      [
        "jmp_edges"; "jmp_hits"; "jmp_misses"; "jmp_finished";
        "jmp_unfinished"; "cache_evictions";
      ]
  @ [
      ("steps_per_second", if oracle then "null" else "float");
      ("threads", "int"); ("mode", "string"); ("oracle_live", "int");
    ]
  @
  if oracle then
    [
      ("oracle_build_seconds", "float"); ("oracle_compressed_bytes", "int");
      ("oracle_distinct_rows", "int");
    ]
  else []

let golden_families =
  [
    "parcfl_cache_capacity"; "parcfl_cache_eviction_age_ticks";
    "parcfl_cache_evictions_total"; "parcfl_cache_size"; "parcfl_jmp_edges";
    "parcfl_jmp_finished_total"; "parcfl_jmp_hits_total";
    "parcfl_jmp_misses_total"; "parcfl_jmp_unfinished_total";
    "parcfl_oracle_build_seconds"; "parcfl_oracle_compressed_bytes";
    "parcfl_oracle_distinct_rows"; "parcfl_oracle_hits_total"; "parcfl_oracle_live";
    "parcfl_oracle_misses_total"; "parcfl_sched_early_terminations_total";
    "parcfl_sched_group_size"; "parcfl_sched_groups_total";
    "parcfl_solver_minor_words_per_query"; "parcfl_stage_seconds";
    "parcfl_svc_admitted_total"; "parcfl_svc_batched_queries_total";
    "parcfl_svc_batches_total"; "parcfl_svc_cache_hits_total";
    "parcfl_svc_cache_misses_total"; "parcfl_svc_coalesced_total";
    "parcfl_svc_completed_total"; "parcfl_svc_explains_miss_total";
    "parcfl_svc_explains_ok_total"; "parcfl_svc_flushes_forced_total";
    "parcfl_svc_flushes_full_total"; "parcfl_svc_flushes_idle_total";
    "parcfl_svc_healthy"; "parcfl_svc_info"; "parcfl_svc_latency_us"; "parcfl_svc_queue_depth";
    "parcfl_svc_rejected_total"; "parcfl_svc_stage_batch_wait_us_total";
    "parcfl_svc_stage_queue_wait_us_total";
    "parcfl_svc_stage_respond_us_total"; "parcfl_svc_stage_solve_us_total";
    "parcfl_svc_steps"; "parcfl_svc_steps_per_second"; "parcfl_svc_threads";
    "parcfl_svc_timeouts_budget_total"; "parcfl_svc_timeouts_deadline_total";
    "parcfl_svc_uptime_seconds"; "parcfl_witness_chain_depth";
    "parcfl_witness_explain_latency_us"; "parcfl_worker_busy_us_total";
  ]

let json_kind = function
  | P.Json.Int _ -> "int"
  | P.Json.Float _ -> "float"
  | P.Json.String _ -> "string"
  | P.Json.Null -> "null"
  | _ -> "other"

let check_golden_shape ~oracle =
  let b, svc = make_service ~oracle () in
  drive_queries svc b.P.Suite.queries;
  let what = if oracle then "CI+oracle" else "CS" in
  (match P.Service.stats svc with
  | P.Json.Obj fields ->
      Alcotest.(check (list (pair string string)))
        (what ^ " stats keys and kinds") (golden_stats ~oracle)
        (List.map (fun (k, v) -> (k, json_kind v)) fields)
  | _ -> Alcotest.fail "stats is not an object");
  (match E.parse_families (P.Service.metrics_text svc) with
  | Ok fams ->
      Alcotest.(check (list string))
        (what ^ " exposition families") golden_families
        (List.map E.family_name fams)
  | Error e -> Alcotest.failf "scrape did not parse: %s" e);
  P.Service.shutdown svc

let test_service_exposition () =
  check_golden_shape ~oracle:true;
  check_golden_shape ~oracle:false;
  let b, svc = make_service () in
  drive_queries svc b.P.Suite.queries;
  let text = P.Service.metrics_text svc in
  (* The acceptance bar: at least one counter from each dark subsystem. *)
  check_contains "jmp store" "# TYPE parcfl_jmp_hits_total counter" text;
  check_contains "jmp misses" "parcfl_jmp_misses_total " text;
  check_contains "sched" "# TYPE parcfl_sched_groups_total counter" text;
  check_contains "early terms" "parcfl_sched_early_terminations_total " text;
  check_contains "cache evictions" "# TYPE parcfl_cache_evictions_total counter"
    text;
  check_contains "latency histogram" "# TYPE parcfl_svc_latency_us histogram"
    text;
  check_contains "latency inf bucket" "parcfl_svc_latency_us_bucket{le=\"+Inf\"}"
    text;
  check_contains "latency count" "parcfl_svc_latency_us_count " text;
  check_contains "idle flushes" "parcfl_svc_flushes_idle_total " text;
  check_contains "forced flushes" "parcfl_svc_flushes_forced_total " text;
  check_contains "worker busy" "parcfl_worker_busy_us_total{worker=\"0\"}" text;
  (* Scrapes are deterministic between state changes (modulo uptime). *)
  Alcotest.(check string) "stable bytes" (strip_uptime text)
    (strip_uptime (P.Service.metrics_text svc));
  (* Every sched group the engine ran is visible. *)
  check_contains "group size histogram" "parcfl_sched_group_size_bucket" text;
  (* A real ~30-family scrape survives parse_families round trip. *)
  match E.parse_families text with
  | Error e -> Alcotest.failf "live scrape did not parse: %s" e
  | Ok fams ->
      Alcotest.(check string) "live scrape render fixpoint" text
        (E.render fams)

let test_service_slowlog () =
  let b, svc = make_service () in
  drive_queries svc b.P.Suite.queries;
  let sl = P.Service.slowlog svc in
  Alcotest.(check bool) "populated" true (P.Svc_slowlog.size sl > 0);
  Alcotest.(check bool) "bounded by capacity" true
    (P.Svc_slowlog.size sl <= 3);
  let worst = P.Svc_slowlog.worst sl in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.P.Svc_slowlog.sl_latency_us >= b.P.Svc_slowlog.sl_latency_us
        && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "slowest first" true (sorted worst);
  (* The protocol path returns the same list as JSON. *)
  let responses = ref [] in
  P.Service.submit svc ~now:99.0
    ~respond:(fun r -> responses := r :: !responses)
    (Proto.Slowlog { id = 7; limit = Some 2 });
  match !responses with
  | [ Proto.Slowlog_reply { id = 7; entries = P.Json.List l } ] ->
      Alcotest.(check bool) "limit honoured" true (List.length l <= 2)
  | _ -> Alcotest.fail "expected one slowlog reply"

let test_service_metrics_request () =
  let b, svc = make_service () in
  drive_queries svc b.P.Suite.queries;
  let responses = ref [] in
  P.Service.submit svc ~now:99.0
    ~respond:(fun r -> responses := r :: !responses)
    (Proto.Metrics 5);
  match !responses with
  | [ Proto.Metrics_reply { id = 5; body } ] ->
      Alcotest.(check string) "request equals scrape"
        (strip_uptime (P.Service.metrics_text svc))
        (strip_uptime body);
      (* The reply survives the single-line wire format. *)
      let line = Proto.response_to_string (List.hd !responses) in
      Alcotest.(check bool) "single line" true
        (not (String.contains line '\n'));
      (match Proto.response_of_string line with
      | Ok (Proto.Metrics_reply { body = body'; _ }) ->
          Alcotest.(check string) "round trip" body body'
      | _ -> Alcotest.fail "metrics reply did not round trip")
  | _ -> Alcotest.fail "expected one metrics reply"

(* Fuzzing the exposition parser: byte soup built from the format's own
   tokens, and a real service scrape with bytes flipped, cut or
   duplicated. The parser must answer Ok/Error and never raise; what it
   accepts must re-render to text it parses back to the same families. *)
let live_scrape =
  lazy
    (let b, svc = make_service () in
     drive_queries svc b.P.Suite.queries;
     P.Service.metrics_text svc)

let gen_expo_soup =
  let open QCheck.Gen in
  let token =
    oneofl
      [ "# HELP "; "# TYPE "; "# "; "counter"; "gauge"; "histogram";
        "summary"; "x"; "x_total"; "h"; "h_bucket"; "h_count"; "h_sum";
        "{"; "}"; "le="; "a="; "\""; ","; "\\"; "\\n"; "\\t"; " "; "\n";
        "\r"; "\000"; "\xff"; "1"; "-2.5e3"; "+Inf"; "-Inf"; "NaN"; "1e309";
        "0x1p3"; "_"; ":" ]
  in
  oneof
    [
      string_size ~gen:char (0 -- 200);
      map (String.concat "") (list_size (0 -- 60) token);
    ]

let gen_mutated_scrape =
  let open QCheck.Gen in
  let* edits =
    list_size (1 -- 4)
      (triple (0 -- 4) nat (pair nat char))
  in
  let text = Lazy.force live_scrape in
  (* Byte edits: flip one, cut a range, duplicate a range; line edits:
     drop a line, duplicate a line (which keeps every line well formed). *)
  let line_edit kind i s =
    let lines = String.split_on_char '\n' s in
    let i = i mod List.length lines in
    List.concat
      (List.mapi
         (fun k l -> if k <> i then [ l ] else if kind = 3 then [] else [ l; l ])
         lines)
    |> String.concat "\n"
  in
  return
    (List.fold_left
       (fun s (kind, i, (j, c)) ->
         let n = String.length s in
         if n = 0 then s
         else
           let i = i mod n and j = j mod n in
           let lo = min i j and hi = max i j in
           match kind with
           | 0 -> String.mapi (fun k x -> if k = i then c else x) s
           | 1 -> String.sub s 0 lo ^ String.sub s hi (n - hi)
           | 2 -> String.sub s 0 hi ^ String.sub s lo (n - lo)
           | _ -> line_edit kind i s)
       text edits)

let prop_parse_families_total =
  QCheck.Test.make ~name:"exposition parser never raises" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneof [ gen_expo_soup; gen_mutated_scrape ]))
    (fun text ->
      match E.parse_families text with
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok fams -> (
          let once = E.render fams in
          match E.parse_families once with
          | exception e ->
              QCheck.Test.fail_reportf "re-parse raised %s"
                (Printexc.to_string e)
          | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e
          | Ok fams' ->
              (* Render is injective up to its sort order and 12-digit
                 values, so equal bytes mean the same families. *)
              E.render fams' = once))

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "sanitise and escape" `Quick test_sanitize_and_escape;
      Alcotest.test_case "render deterministic + sorted" `Quick
        test_render_deterministic_and_sorted;
      Alcotest.test_case "non-finite values" `Quick test_render_nonfinite;
      Alcotest.test_case "cumulative log2 buckets" `Quick
        test_cumulative_buckets;
      Alcotest.test_case "histogram rendering" `Quick test_histogram_render;
      Alcotest.test_case "parse round trip" `Quick test_parse_roundtrip;
      Alcotest.test_case "parse rejects malformed" `Quick
        test_parse_rejects_malformed;
      Alcotest.test_case "registry isolates collectors" `Quick test_registry;
      Alcotest.test_case "slowlog bound and order" `Quick
        test_slowlog_bound_and_order;
      Alcotest.test_case "tracer dropped footer" `Quick
        test_tracer_dropped_footer;
      Alcotest.test_case "service exposition" `Quick test_service_exposition;
      Alcotest.test_case "service slowlog" `Quick test_service_slowlog;
      Alcotest.test_case "service metrics request" `Quick
        test_service_metrics_request;
      QCheck_alcotest.to_alcotest prop_parse_families_total;
    ] )

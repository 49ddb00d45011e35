(* Observability layer: the hand-rolled JSON printer/parser, the per-worker
   event tracer with its Chrome trace export, and the report-level
   histogram/ratio invariants the bench emitter relies on. *)
module Json = Parcfl.Json
module Tracer = Parcfl.Tracer
module Span = Parcfl.Svc_span
module Mode = Parcfl.Mode
module Runner = Parcfl.Runner
module Report = Parcfl.Report
module Histogram = Parcfl.Histogram

(* ------------------------------- json ------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("true", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 3.25);
        ("big", Json.Float 1.5e300);
        ("str", Json.String "a\"b\\c\nd\te\x01f");
        ("unicode", Json.String "caf\xc3\xa9");
        ("list", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_float_token () =
  (* Floats must re-parse as Float, ints as Int. *)
  (match Json.of_string (Json.to_string (Json.Float 4.0)) with
  | Ok (Json.Float 4.0) -> ()
  | Ok v -> Alcotest.failf "4.0 became %s" (Json.to_string v)
  | Error e -> Alcotest.fail e);
  (match Json.of_string (Json.to_string (Json.Int 4)) with
  | Ok (Json.Int 4) -> ()
  | _ -> Alcotest.fail "int 4 does not round-trip");
  (* Non-finite floats print as null — still valid JSON. *)
  match Json.of_string (Json.to_string (Json.Float Float.nan)) with
  | Ok Json.Null -> ()
  | _ -> Alcotest.fail "nan must serialise as null"

let test_json_parser_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%S parsed as %s" s (Json.to_string v))
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "nul"; "1 2";
      "{\"a\":1,}"; "[1] trailing";
    ]

let test_json_unicode_escape () =
  match Json.of_string "\"\\u0041\\u00e9\\n\"" with
  | Ok (Json.String s) ->
      Alcotest.(check string) "escapes decode" "A\xc3\xa9\n" s
  | Ok v -> Alcotest.failf "unexpected %s" (Json.to_string v)
  | Error e -> Alcotest.fail e

(* ------------------------------ tracer ----------------------------- *)

let trace_events json =
  match Json.member "traceEvents" json with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "missing traceEvents"

let str_field k ev =
  match Json.member k ev with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "event missing %S" k

let int_field k ev =
  match Json.member k ev with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "event missing int %S" k

let ts_field ev =
  match Json.member "ts" ev with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.fail "event missing ts"

(* The structural contract of the export: per thread, timestamps are
   monotonic, B/E strictly alternate (queries never nest per worker) and
   every B has its E. *)
let check_well_formed evs =
  let per_tid = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let tid = int_field "tid" ev in
      let prev =
        match Hashtbl.find_opt per_tid tid with
        | Some p -> p
        | None -> (neg_infinity, 0)
      in
      let last_ts, depth = prev in
      let ts = ts_field ev in
      if ts < last_ts then
        Alcotest.failf "tid %d: ts %f < %f" tid ts last_ts;
      let depth =
        match str_field "ph" ev with
        | "B" ->
            if depth <> 0 then Alcotest.failf "tid %d: nested B" tid;
            1
        | "E" ->
            if depth <> 1 then Alcotest.failf "tid %d: E without B" tid;
            0
        | "i" -> depth
        | ph -> Alcotest.failf "unexpected phase %S" ph
      in
      Hashtbl.replace per_tid tid (ts, depth))
    evs;
  Hashtbl.iter
    (fun tid (_, depth) ->
      if depth <> 0 then Alcotest.failf "tid %d: unclosed B" tid)
    per_tid

let test_tracer_roundtrip () =
  let tr = Tracer.create ~workers:2 () in
  for w = 0 to 1 do
    for q = 0 to 4 do
      Tracer.emit tr ~worker:w Tracer.Query_start ~var:q;
      Tracer.emit tr ~worker:w Tracer.Jmp_hit ~var:(100 + q);
      if q mod 2 = 0 then Tracer.emit tr ~worker:w Tracer.Early_term ~var:q;
      Tracer.emit tr ~worker:w Tracer.Query_end ~var:q
    done
  done;
  Alcotest.(check int) "all retained" (5 * 2 * 2 + 5 * 2 + 3 * 2)
    (Tracer.n_events tr);
  Alcotest.(check int) "nothing dropped" 0 (Tracer.n_dropped tr);
  let s = Json.to_string (Tracer.to_json tr) in
  match Json.of_string s with
  | Error e -> Alcotest.failf "export does not parse: %s" e
  | Ok json ->
      let evs = trace_events json in
      check_well_formed evs;
      let tids =
        List.sort_uniq compare (List.map (int_field "tid") evs)
      in
      Alcotest.(check (list int)) "both workers present" [ 0; 1 ] tids;
      let starts =
        List.filter (fun ev -> str_field "ph" ev = "B") evs
      in
      Alcotest.(check int) "10 queries" 10 (List.length starts)

(* A trace's origin survives export -> parse -> merge_cluster to the
   microsecond. An epoch origin is ~1.79e15 us, where 12 significant
   digits step by 10 ms; an integer [t0_us] is exact. *)
let test_trace_origin_exact () =
  let tr = Tracer.create ~workers:1 () in
  Tracer.emit tr ~worker:0 Tracer.Query_start ~var:1;
  Tracer.emit tr ~worker:0 Tracer.Query_end ~var:1;
  let doc = Tracer.to_json tr in
  (match Json.member "t0_us" doc with
  | Some (Json.Int _) -> ()
  | _ -> Alcotest.fail "t0_us is not written as an integer");
  let exported t0 =
    let doc =
      match doc with
      | Json.Obj fs ->
          Json.Obj (List.map (fun (k, v) -> if k = "t0_us" then (k, t0) else (k, v)) fs)
      | _ -> Alcotest.fail "trace is not an object"
    in
    match Json.of_string (Json.to_string doc) with
    | Ok j -> j
    | Error e -> Alcotest.failf "export does not parse: %s" e
  in
  let base = 1.79e15 in
  let router =
    {
      Tracer.rs_id = 1; rs_rid = 1; rs_replica = 0; rs_var = 1;
      rs_accept_us = base; rs_route_us = base; rs_forward_us = base;
      rs_reply_us = base +. 400.0; rs_respond_us = base +. 500.0;
    }
  in
  let ts_of pid j =
    List.filter_map
      (fun ev ->
        match (Json.member "pid" ev, Json.member "ts" ev) with
        | Some (Json.Int p), Some (Json.Float ts) when p = pid -> Some ts
        | _ -> None)
      (trace_events j)
  in
  let original = ts_of 0 (exported (Json.Int 0)) in
  List.iter
    (fun (what, t0, shift) ->
      let merged =
        Tracer.merge_cluster ~router_spans:[ router ]
          ~replicas:[ (0, exported t0) ]
      in
      (match Json.member "t0_us" merged with
      | Some (Json.Int n) -> Alcotest.(check int) "merged origin" 1_790_000_000_000_000 n
      | _ -> Alcotest.fail "merged t0_us is not an integer");
      let moved = ts_of 1 merged in
      Alcotest.(check int) (what ^ ": events") (List.length original) (List.length moved);
      List.iter2
        (fun a b ->
          if Float.abs (b -. a -. shift) >= 1.0 then
            Alcotest.failf "%s: event at %.3f moved to %.3f, want +%.0f" what a b shift)
        original moved)
    [
      ("integer origin", Json.Int 1_790_000_000_000_123, 123.0);
      ("float origin", Json.Float 1.79000000001e15, 10_000.0);
    ]

let test_tracer_overflow () =
  let tr = Tracer.create ~capacity:16 ~workers:1 () in
  for q = 0 to 99 do
    Tracer.emit tr ~worker:0 Tracer.Query_start ~var:q;
    Tracer.emit tr ~worker:0 Tracer.Budget_exhausted ~var:q;
    Tracer.emit tr ~worker:0 Tracer.Query_end ~var:q
  done;
  Alcotest.(check int) "ring is full" 16 (Tracer.n_events tr);
  Alcotest.(check int) "rest dropped" (300 - 16) (Tracer.n_dropped tr);
  (* After wrap the export must still be well formed: no orphan E. *)
  match Json.of_string (Json.to_string (Tracer.to_json tr)) with
  | Error e -> Alcotest.failf "overflow export does not parse: %s" e
  | Ok json -> check_well_formed (trace_events json)

let test_tracer_ignores_bad_worker () =
  let tr = Tracer.create ~workers:1 () in
  Tracer.emit tr ~worker:5 Tracer.Query_start ~var:0;
  Tracer.emit tr ~worker:(-1) Tracer.Query_start ~var:0;
  Alcotest.(check int) "out-of-range workers ignored" 0 (Tracer.n_events tr)

(* The service lane: request spans export as "X" complete events on their
   own pseudo-process, overlapping requests on distinct lanes (tids). *)
let service_events json =
  List.filter
    (fun ev ->
      match Json.member "pid" ev with Some (Json.Int 1) -> true | _ -> false)
    (trace_events json)

let request_id ev =
  match Json.member "args" ev with
  | Some args -> (
      match Json.member "id" args with Some (Json.Int i) -> Some i | _ -> None)
  | None -> None

let dur_field ev =
  match Json.member "dur" ev with
  | Some (Json.Float d) -> d
  | Some (Json.Int d) -> float_of_int d
  | _ -> Alcotest.fail "X event without dur"

(* Per request id: its "request" event and the stage slices the export
   writes right after it. *)
let request_slices evs =
  List.fold_left
    (fun acc ev ->
      match (str_field "ph" ev, str_field "name" ev, acc) with
      | "X", "request", _ -> (
          match request_id ev with
          | Some id -> (id, (ev, [])) :: acc
          | None -> Alcotest.fail "request event without an id")
      | "X", _, (id, (req, stages)) :: rest ->
          (id, (req, stages @ [ ev ])) :: rest
      | _ -> acc)
    [] evs
  |> List.rev

let test_tracer_service_lane () =
  let tr = Tracer.create ~workers:1 () in
  let base = Unix.gettimeofday () *. 1e6 in
  let span a b =
    let sp = Span.create ~admit_us:(base +. a) in
    Span.stamp_batch sp ~us:(base +. a +. 10.0);
    Span.stamp_sched sp ~us:(base +. a +. 12.0);
    Span.stamp_solve sp ~start_us:(base +. a +. 15.0)
      ~end_us:(base +. b -. 5.0);
    Span.stamp_respond sp ~us:(base +. b);
    sp
  in
  (* Two overlapping requests, one disjoint later one. *)
  Tracer.note_request tr ~id:1 ~var:1 (span 0.0 100.0);
  Tracer.note_request tr ~id:2 ~var:2 (span 50.0 150.0);
  Tracer.note_request tr ~id:3 ~var:3 (span 200.0 300.0);
  Alcotest.(check int) "three spans" 3 (Tracer.n_requests tr);
  Alcotest.(check int) "none dropped" 0 (Tracer.n_dropped_requests tr);
  match Json.of_string (Json.to_string (Tracer.to_json tr)) with
  | Error e -> Alcotest.failf "service lane export does not parse: %s" e
  | Ok json ->
      let slices = request_slices (service_events json) in
      Alcotest.(check int) "one X event per request" 3 (List.length slices);
      (* Overlapping requests 1 and 2 must not share a lane; request 3 can
         reuse a freed one. *)
      let lane_of id =
        match List.assoc_opt id slices with
        | Some (ev, _) -> int_field "tid" ev
        | None -> Alcotest.failf "request %d missing from the lane" id
      in
      Alcotest.(check bool) "overlap forces distinct lanes" true
        (lane_of 1 <> lane_of 2);
      Alcotest.(check int) "disjoint request reuses lane 0" (lane_of 1)
        (lane_of 3);
      (* Each request spans admit -> respond, and its stage slices tile it
         in queue/batch/solve/respond order with the span's breakdown. *)
      List.iter
        (fun (_, (ev, stages)) ->
          Alcotest.(check (float 1e-6)) "request dur" 100.0 (dur_field ev);
          Alcotest.(check (list string)) "stage order"
            [ "queue"; "batch"; "solve"; "respond" ]
            (List.map (str_field "name") stages);
          Alcotest.(check (list (float 1e-6))) "stage durations"
            [ 10.0; 5.0; 80.0; 5.0 ]
            (List.map dur_field stages))
        slices

(* A traced service: every answer's wire breakdown is what the trace's
   service lane shows for that request — solver answers through the
   batcher and one oracle-tier point span with zero queue and batch wait. *)
let test_tracer_lane_matches_breakdown () =
  let b = Parcfl.Suite.build_by_name "_200_check" |> Option.get in
  let config =
    {
      Parcfl.Service.default_config with
      Parcfl.Service.threads = 1;
      max_batch = 4;
      context_sensitive = false;
      oracle = true;
    }
  in
  let tr = Tracer.create ~workers:1 () in
  let svc =
    Parcfl.Service.create ~config ~tracer:tr
      ~type_level:b.Parcfl.Suite.type_level b.Parcfl.Suite.pag
  in
  let answers = Hashtbl.create 8 in
  let respond = function
    | Parcfl.Svc_protocol.Answer { id; breakdown; _ } ->
        Hashtbl.replace answers id breakdown
    | r ->
        Alcotest.failf "unexpected %s"
          (Parcfl.Svc_protocol.response_to_string r)
  in
  let ask ?budget id v =
    Parcfl.Service.submit svc ~now:(Unix.gettimeofday ()) ~respond
      (Parcfl.Svc_protocol.Query
         { id; var = Printf.sprintf "#%d" v; budget; deadline_ms = None;
           trace = None })
  in
  let qs = b.Parcfl.Suite.queries in
  (* [budget=] queries fall through the oracle tier to the batcher; the
     plain one (id 0) is answered by the tier. *)
  ask 0 qs.(0);
  for i = 1 to 6 do
    ask ~budget:(Parcfl.Service.default_config.Parcfl.Service.max_budget - i)
      i qs.(i)
  done;
  ignore (Parcfl.Service.pump svc ~now:(Unix.gettimeofday ()));
  Parcfl.Service.drain svc ~now:(Unix.gettimeofday ());
  Parcfl.Service.shutdown svc;
  Alcotest.(check int) "every query answered" 7 (Hashtbl.length answers);
  match Json.of_string (Json.to_string (Tracer.to_json tr)) with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok json ->
      let slices = request_slices (service_events json) in
      Alcotest.(check int) "one lane request per answer" 7
        (List.length slices);
      Hashtbl.iter
        (fun id bd ->
          let _, stages =
            match List.assoc_opt id slices with
            | Some s -> s
            | None -> Alcotest.failf "request %d missing from the lane" id
          in
          (* Zero-length stages render no slice. *)
          let traced name =
            List.fold_left
              (fun acc s ->
                if str_field "name" s = name then acc +. dur_field s else acc)
              0.0 stages
          in
          List.iter2
            (fun name want ->
              Alcotest.(check (float 1.0))
                (Printf.sprintf "request %d %s" id name)
                want (traced name))
            Span.stage_names (Span.stage_values bd))
        answers;
      let point = Hashtbl.find answers 0 in
      Alcotest.(check (float 0.0)) "oracle span: no queue wait" 0.0
        point.Span.bd_queue_wait_us;
      Alcotest.(check (float 0.0)) "oracle span: no batch wait" 0.0
        point.Span.bd_batch_wait_us

(* --------------------------- histograms ---------------------------- *)

let test_histogram_bucket () =
  Alcotest.(check int) "0 -> bucket 0" 0 (Histogram.bucket ~buckets:8 0);
  Alcotest.(check int) "1 -> bucket 0" 0 (Histogram.bucket ~buckets:8 1);
  Alcotest.(check int) "2 -> bucket 1" 1 (Histogram.bucket ~buckets:8 2);
  Alcotest.(check int) "255 -> bucket 7" 7 (Histogram.bucket ~buckets:8 255);
  Alcotest.(check int) "overflow clamps" 7
    (Histogram.bucket ~buckets:8 max_int);
  let h = Histogram.of_values ~buckets:8 [| 0; 1; 2; 3; 9; 1_000_000 |] in
  Alcotest.(check int) "totals preserved" 6 (Array.fold_left ( + ) 0 h)

(* ------------------------ report invariants ------------------------ *)

let bench = lazy (Parcfl.Suite.build Parcfl.Profile.tiny)

let test_report_invariants () =
  let b = Lazy.force bench in
  let n_queries = Array.length b.Parcfl.Suite.queries in
  List.iter
    (fun (mode, sim) ->
      let r =
        if sim then
          Runner.simulate ~tau_f:5 ~tau_u:50
            ~type_level:b.Parcfl.Suite.type_level ~mode ~threads:4
            ~queries:b.Parcfl.Suite.queries b.Parcfl.Suite.pag
        else
          Runner.run ~tau_f:5 ~tau_u:50
            ~type_level:b.Parcfl.Suite.type_level ~mode ~threads:2
            ~queries:b.Parcfl.Suite.queries b.Parcfl.Suite.pag
      in
      let total a = Array.fold_left ( + ) 0 a in
      Alcotest.(check int) "latency hist sums to query count" n_queries
        (total r.Report.r_latency_hist);
      Alcotest.(check int) "steps hist sums to query count" n_queries
        (total r.Report.r_steps_hist);
      let rs = Report.ratio_saved r in
      Alcotest.(check bool) "ratio_saved in [0,1]" true
        (rs >= 0.0 && rs <= 1.0);
      if Mode.uses_sharing mode then
        Alcotest.(check bool) "sharing saves something" true (rs > 0.0)
      else Alcotest.(check (float 0.0)) "no sharing, no savings" 0.0 rs;
      (* The bench entry is valid JSON carrying the same numbers. *)
      match Json.of_string (Json.to_string (Report.to_json ~bench:"t" r)) with
      | Error e -> Alcotest.failf "report json: %s" e
      | Ok j ->
          Alcotest.(check (option string)) "mode field"
            (Some (Mode.to_string mode))
            (match Json.member "mode" j with
            | Some (Json.String s) -> Some s
            | _ -> None);
          (match Json.member "ratio_saved" j with
          | Some (Json.Float f) ->
              Alcotest.(check (float 1e-9)) "ratio field" rs f
          | _ -> Alcotest.fail "ratio_saved missing");
          (match Json.member "queries" j with
          | Some (Json.Int q) ->
              Alcotest.(check int) "queries field" n_queries q
          | _ -> Alcotest.fail "queries missing"))
    [ (Mode.Seq, false); (Mode.Share, false); (Mode.Share_sched, true) ]

let test_solver_trace_wiring () =
  (* The runner threads the tracer into the solver: a traced run records
     exactly one B/E pair per query on the workers that executed them. *)
  let b = Lazy.force bench in
  let tracer = Tracer.create ~workers:2 () in
  let _r =
    Runner.run ~tau_f:5 ~tau_u:50 ~type_level:b.Parcfl.Suite.type_level
      ~tracer ~mode:Mode.Share ~threads:2 ~queries:b.Parcfl.Suite.queries
      b.Parcfl.Suite.pag
  in
  match Json.of_string (Json.to_string (Tracer.to_json tracer)) with
  | Error e -> Alcotest.failf "trace json: %s" e
  | Ok json ->
      let evs = trace_events json in
      check_well_formed evs;
      let starts = List.filter (fun ev -> str_field "ph" ev = "B") evs in
      Alcotest.(check int) "one span per query"
        (Array.length b.Parcfl.Suite.queries)
        (List.length starts)

let test_bench_stamp () =
  let module B = Parcfl.Bench_json in
  List.iter
    (fun (name, want) ->
      Alcotest.(check bool) name want (B.is_timestamped name))
    [
      ("20260809T020844Z.json", true);
      ("19991231T235959Z.json", true);
      ("latest.json", false);
      ("20260809T020844Z.json.bak", false);
      ("20260809t020844Z.json", false);
      ("2026080xT020844Z.json", false);
      ("20260809T020844Z.JSON", false);
      ("", false);
    ]

let test_prune_history () =
  let module B = Parcfl.Bench_json in
  let dir = Filename.temp_file "parcfl_hist" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let touch name = close_out (open_out (Filename.concat dir name)) in
  let stamps =
    [
      "20260801T000000Z.json";
      "20260802T000000Z.json";
      "20260803T000000Z.json";
      "20260804T000000Z.json";
    ]
  in
  List.iter touch stamps;
  touch "latest.json";
  touch "notes.txt";
  let removed = B.prune_history ~dir ~keep:2 in
  Alcotest.(check (slist string compare))
    "two oldest removed"
    [ "20260801T000000Z.json"; "20260802T000000Z.json" ]
    removed;
  let left = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string))
    "newest stamps and strays survive"
    [ "20260803T000000Z.json"; "20260804T000000Z.json"; "latest.json"; "notes.txt" ]
    left;
  Alcotest.(check (list string)) "idempotent" [] (B.prune_history ~dir ~keep:2);
  Alcotest.(check (list string))
    "missing directory prunes nothing" []
    (B.prune_history ~dir:(Filename.concat dir "absent") ~keep:1);
  List.iter (fun n -> Sys.remove (Filename.concat dir n)) left;
  Unix.rmdir dir

let suite =
  ( "obs",
    [
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json float token" `Quick test_json_float_token;
      Alcotest.test_case "json parser errors" `Quick test_json_parser_errors;
      Alcotest.test_case "json unicode escape" `Quick test_json_unicode_escape;
      Alcotest.test_case "tracer roundtrip" `Quick test_tracer_roundtrip;
      Alcotest.test_case "tracer overflow" `Quick test_tracer_overflow;
      Alcotest.test_case "trace origin exact through merge" `Quick
        test_trace_origin_exact;
      Alcotest.test_case "tracer bad worker" `Quick
        test_tracer_ignores_bad_worker;
      Alcotest.test_case "tracer lane = response breakdown" `Quick
        test_tracer_lane_matches_breakdown;
      Alcotest.test_case "tracer service lane" `Quick
        test_tracer_service_lane;
      Alcotest.test_case "histogram bucket" `Quick test_histogram_bucket;
      Alcotest.test_case "report invariants" `Quick test_report_invariants;
      Alcotest.test_case "solver trace wiring" `Quick
        test_solver_trace_wiring;
      Alcotest.test_case "bench history stamp" `Quick test_bench_stamp;
      Alcotest.test_case "bench history pruning" `Quick test_prune_history;
    ] )

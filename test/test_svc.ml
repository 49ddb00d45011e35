(* The persistent analysis service (lib/svc): wire protocol, result cache,
   admission control, the work-conserving batching rule, and the service state machine
   driven deterministically through submit/pump/drain with an explicit
   clock — no server process, no sleeping. *)

module P = Parcfl
module Proto = P.Svc_protocol

(* ----------------------------- protocol ---------------------------- *)

let test_request_round_trip () =
  let requests =
    [
      Proto.Query { id = 1; var = "#5"; budget = None; deadline_ms = None; trace = None };
      Proto.Query
        { id = 2; var = "Main.x"; budget = Some 100; deadline_ms = Some 5.5; trace = None };
      (* A router-forwarded query: rewritten id, original id in trace. *)
      Proto.Query
        { id = 11; var = "#5"; budget = Some 9; deadline_ms = None; trace = Some 2 };
      Proto.Stats 3;
      Proto.Metrics 4;
      Proto.Slowlog { id = 5; limit = None };
      Proto.Slowlog { id = 6; limit = Some 10 };
      Proto.Health 8;
      Proto.Explain { id = 12; var = "#5"; obj = "#2" };
      Proto.Explain { id = 13; var = "Main.x"; obj = "Main.Obj/3" };
      Proto.Drain 9;
      Proto.Ping 7;
      Proto.Quit;
    ]
  in
  List.iter
    (fun r ->
      match Proto.parse_request (Proto.request_to_string r) with
      | Ok r' when r = r' -> ()
      | Ok _ -> Alcotest.failf "round trip changed %s" (Proto.request_to_string r)
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    requests

let test_request_errors () =
  List.iter
    (fun line ->
      match Proto.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed %S" line)
    [
      ""; "query"; "query x"; "bogus 1"; "ping notanint";
      "query 1 v budget=x"; "query 1 v trace=x"; "metrics"; "metrics x";
      "slowlog";
      "slowlog 1 -2"; "slowlog 1 x"; "health"; "health x";
      "drain"; "drain x"; "snapshot"; "snapshot 1"; "snapshot x";
      "explain"; "explain 1"; "explain 1 v"; "explain x v o";
    ]

(* Fuzzing: byte soup built from the protocol's own tokens and the bytes
   transports mishandle (CR, NUL, newline, non-UTF-8, JSON escapes), plus
   valid responses with one byte replaced or the tail cut off. *)
let gen_fuzz_line =
  let open QCheck.Gen in
  let byte =
    oneof
      [
        char;
        oneofl
          [ '\r'; '\000'; '\n'; ' '; '\xff'; '\xc3'; '"'; '\\'; '='; '#' ];
      ]
  in
  let piece =
    oneof
      [
        map (String.make 1) byte;
        oneofl
          [
            "query "; "explain "; "slowlog "; "ping "; "budget=";
            "deadline_ms="; "trace="; "{\"status\":"; "\"ok\""; "\"id\":";
            ",\"id\":null"; "\\u"; "\\ud800"; "1e999"; "-"; "nan"; "[";
            "]"; "{"; "}";
          ];
      ]
  in
  let soup = map (String.concat "") (list_size (0 -- 40) piece) in
  let valid =
    oneofl
      (List.map Proto.response_to_string
         [
           Proto.Pong 6;
           Proto.Error { id = None; reason = "request line too long" };
           Proto.Rejected { id = 4; reason = "draining" };
           Proto.Explain_reply
             {
               id = 14; var = "v"; obj = "o"; found = true; depth = 1;
               latency_us = 42.0; chain = P.Json.List [];
             };
           Proto.Health_reply { id = 8; healthy = false; reasons = [ "x" ] };
         ])
  in
  let mutated =
    valid >>= fun s ->
    let n = String.length s in
    0 -- (n - 1) >>= fun i ->
    byte >>= fun c ->
    oneofl
      [
        String.sub s 0 i;
        String.mapi (fun j d -> if j = i then c else d) s;
      ]
  in
  oneof [ soup; mutated ]

let prop_parsers_total =
  QCheck.Test.make ~name:"protocol parsers never raise" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_fuzz_line)
    (fun line ->
      ignore (Proto.parse_request line);
      ignore (Proto.response_of_string line);
      true)

(* Valid requests: tokens are any bytes but the separator and the line
   break; numbers span their whole valid ranges. *)
let gen_request =
  let open QCheck.Gen in
  let token =
    string_size
      ~gen:(map (fun c -> if c = ' ' || c = '\n' then '_' else c) char)
      (1 -- 12)
  in
  let id = oneof [ int; small_signed_int ] in
  let positive = oneof [ 1 -- 1000; map (fun n -> max 1 (n land max_int)) int ] in
  let non_negative = oneof [ small_nat; map (fun n -> n land max_int) int ] in
  let deadline =
    oneof
      [
        map float_of_int (0 -- 10_000);
        map (fun n -> float_of_int n /. 1000.0) small_nat;
        map (fun f -> if Float.is_nan f then 0.0 else Float.abs f) float;
      ]
  in
  oneof
    [
      map
        (fun (id, var, (budget, deadline_ms, trace)) ->
          Proto.Query { id; var; budget; deadline_ms; trace })
        (triple id token (triple (opt positive) (opt deadline) (opt id)));
      map
        (fun (id, var, obj) -> Proto.Explain { id; var; obj })
        (triple id token token);
      map
        (fun (id, limit) -> Proto.Slowlog { id; limit })
        (pair id (opt non_negative));
      map (fun id -> Proto.Stats id) id;
      map (fun id -> Proto.Metrics id) id;
      map (fun id -> Proto.Health id) id;
      map (fun id -> Proto.Drain id) id;
      map (fun id -> Proto.Ping id) id;
      pure Proto.Quit;
    ]

let prop_request_round_trip =
  QCheck.Test.make ~name:"request printer and parser round-trip" ~count:3000
    (QCheck.make ~print:Proto.request_to_string gen_request)
    (fun r -> Proto.parse_request (Proto.request_to_string r) = Ok r)

let breakdown =
  {
    P.Svc_span.bd_queue_wait_us = 100.0;
    bd_batch_wait_us = 25.0;
    bd_solve_us = 120.0;
    bd_respond_us = 5.0;
  }

let test_response_round_trip () =
  let responses =
    [
      Proto.Answer
        {
          id = 1;
          var = "v";
          objects = [ "a"; "b" ];
          cached = true;
          steps = 17;
          latency_us = 250.0;
          breakdown;
        };
      Proto.Timeout
        {
          id = 2;
          reason = `Budget;
          cached = false;
          latency_us = 250.0;
          breakdown;
        };
      Proto.Timeout
        {
          id = 3;
          reason = `Deadline;
          cached = false;
          latency_us = 100.0;
          breakdown = P.Svc_span.zero;
        };
      Proto.Rejected { id = 4; reason = "draining" };
      Proto.Error { id = Some 5; reason = "no such variable" };
      Proto.Error { id = None; reason = "parse error" };
      Proto.Pong 6;
      Proto.Stats_reply
        { id = 7; stats = P.Json.Obj [ ("admitted", P.Json.Int 1) ] };
      Proto.Metrics_reply
        { id = 8; body = "# HELP a b\n# TYPE a counter\na 1\n" };
      Proto.Slowlog_reply
        {
          id = 9;
          entries =
            P.Json.List [ P.Json.Obj [ ("id", P.Json.Int 1) ] ];
        };
      Proto.Explain_reply
        {
          id = 14;
          var = "v";
          obj = "o";
          found = true;
          depth = 3;
          latency_us = 42.0;
          chain =
            P.Json.List
              [
                P.Json.Obj
                  [
                    ("kind", P.Json.String "assign");
                    ("edge", P.Json.Int 7);
                    ("dst", P.Json.String "v");
                    ("src", P.Json.String "w");
                    ("ctx", P.Json.List []);
                  ];
              ];
        };
      Proto.Explain_reply
        {
          id = 15;
          var = "v";
          obj = "o";
          found = false;
          depth = 0;
          latency_us = 1.0;
          chain = P.Json.List [];
        };
      Proto.Health_reply { id = 10; healthy = true; reasons = [] };
      Proto.Health_reply
        {
          id = 11;
          healthy = false;
          reasons =
            [ "queue starved: oldest admitted waiting 2.0s (threshold 1.0s)" ];
        };
      Proto.Drained { id = 12; completed = 3 };
    ]
  in
  List.iter
    (fun r ->
      match Proto.response_of_string (Proto.response_to_string r) with
      | Ok r' when r = r' -> ()
      | Ok _ ->
          Alcotest.failf "round trip changed %s" (Proto.response_to_string r)
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    responses

(* ------------------------------ cache ------------------------------ *)

let tiny = lazy (Option.get (P.Suite.build_by_name "tiny"))

let solve_outcome v =
  let b = Lazy.force tiny in
  let session =
    P.Solver.make_session ~config:P.Config.default
      ~ctx_store:(P.Ctx.create_store ()) b.P.Suite.pag
  in
  P.Solver.points_to session v

let test_cache_basic () =
  let b = Lazy.force tiny in
  let outcome = solve_outcome b.P.Suite.queries.(0) in
  let c = P.Svc_cache.create ~capacity:10 () in
  let key v = { P.Svc_cache.ck_var = v; ck_budget = 100 } in
  Alcotest.(check bool) "miss" true (P.Svc_cache.find c (key 0) = None);
  P.Svc_cache.put c (key 0) outcome;
  Alcotest.(check bool) "hit" true (P.Svc_cache.find c (key 0) <> None);
  Alcotest.(check int) "size" 1 (P.Svc_cache.size c);
  (* A different budget is a different key. *)
  Alcotest.(check bool) "other budget misses" true
    (P.Svc_cache.find c { P.Svc_cache.ck_var = 0; ck_budget = 99 } = None)

let test_cache_eviction () =
  let b = Lazy.force tiny in
  let outcome = solve_outcome b.P.Suite.queries.(0) in
  let c = P.Svc_cache.create ~capacity:10 () in
  let key v = { P.Svc_cache.ck_var = v; ck_budget = 1 } in
  for v = 0 to 9 do
    P.Svc_cache.put c (key v) outcome
  done;
  Alcotest.(check int) "at capacity" 10 (P.Svc_cache.size c);
  (* Refresh v=0 so the sweep prefers older entries. *)
  ignore (P.Svc_cache.find c (key 0));
  P.Svc_cache.put c (key 10) outcome;
  Alcotest.(check bool) "evicted" true (P.Svc_cache.evictions c > 0);
  Alcotest.(check bool) "bounded" true (P.Svc_cache.size c <= 10);
  Alcotest.(check bool) "recently used survives" true
    (P.Svc_cache.find c (key 0) <> None);
  Alcotest.(check bool) "newest survives" true
    (P.Svc_cache.find c (key 10) <> None)

let test_cache_reput_replaces () =
  (* Regression: put on a resident key used to keep the stale entry and
     only refresh its recency tick. A re-put must make the new outcome
     observable — a warmed-up jmp store relies on upgrading a cached
     Out_of_budget to a real answer under the same key. *)
  let b = Lazy.force tiny in
  let real = solve_outcome b.P.Suite.queries.(0) in
  let starved =
    { real with P.Query.result = P.Query.Out_of_budget; early_terminated = true }
  in
  let c = P.Svc_cache.create ~capacity:10 () in
  let k = { P.Svc_cache.ck_var = 0; ck_budget = 7 } in
  P.Svc_cache.put c k starved;
  (match P.Svc_cache.find c k with
  | Some o ->
      Alcotest.(check bool) "first put visible" true
        (o.P.Query.result = P.Query.Out_of_budget)
  | None -> Alcotest.fail "first put missed");
  P.Svc_cache.put c k real;
  (match P.Svc_cache.find c k with
  | Some o ->
      Alcotest.(check bool) "re-put replaced the outcome" true
        (o.P.Query.result = real.P.Query.result)
  | None -> Alcotest.fail "re-put missed");
  Alcotest.(check int) "re-put is not an insert" 1 (P.Svc_cache.size c)

let test_cache_concurrent_inserts () =
  (* Eviction sweeps must be mutually excluded: without the try-lock, two
     inserters that both observe size > cap each run the full sweep and
     jointly evict far below the 90% watermark. Hammer the cache from
     several domains and check the size invariants hold afterwards. *)
  let b = Lazy.force tiny in
  let outcome = solve_outcome b.P.Suite.queries.(0) in
  let cap = 64 in
  let c = P.Svc_cache.create ~capacity:cap () in
  let n_domains = 4 and per_domain = 400 in
  let worker d () =
    for i = 0 to per_domain - 1 do
      let k =
        { P.Svc_cache.ck_var = (d * per_domain) + i; ck_budget = 1 }
      in
      P.Svc_cache.put c k outcome
    done
  in
  let domains =
    List.init (n_domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
  in
  worker 0 ();
  List.iter Domain.join domains;
  let target = max 1 (cap - max 1 (cap / 10)) in
  Alcotest.(check bool) "evictions happened" true (P.Svc_cache.evictions c > 0);
  Alcotest.(check bool) "never ends far above capacity" true
    (P.Svc_cache.size c <= cap + n_domains);
  Alcotest.(check bool) "never over-evicts below the watermark" true
    (P.Svc_cache.size c >= target)

(* ---------------------------- admission ---------------------------- *)

(* ----------------------------- service ----------------------------- *)

let service_config =
  {
    P.Service.default_config with
    P.Service.threads = 1;
    max_batch = 8;
  }

let make_service ?(config = service_config) () =
  let b = Lazy.force tiny in
  (b, P.Service.create ~config ~type_level:b.P.Suite.type_level b.P.Suite.pag)

let collector () =
  let responses : (int, Proto.response) Hashtbl.t = Hashtbl.create 8 in
  let respond r =
    match Proto.response_id r with
    | Some id -> Hashtbl.replace responses id r
    | None -> Alcotest.fail "response without an id"
  in
  (responses, respond)

let query ?budget ?deadline_ms id v =
  Proto.Query { id; var = Printf.sprintf "#%d" v; budget; deadline_ms; trace = None }

let test_cached_equals_cold () =
  let b, svc = make_service () in
  let v = b.P.Suite.queries.(0) in
  let responses, respond = collector () in
  P.Service.submit svc ~now:0.0 ~respond (query 1 v);
  ignore (P.Service.pump svc ~now:0.0);
  P.Service.submit svc ~now:1.0 ~respond (query 2 v);
  let expected =
    P.Query.objects (solve_outcome v).P.Query.result
    |> List.map (P.Pag.obj_name b.P.Suite.pag)
    |> List.sort_uniq compare
  in
  (match Hashtbl.find_opt responses 1 with
  | Some (Proto.Answer { cached; objects; _ }) ->
      Alcotest.(check bool) "first is cold" false cached;
      Alcotest.(check (list string)) "cold = direct solve" expected objects
  | r ->
      Alcotest.failf "unexpected cold response %s"
        (match r with Some r -> Proto.response_to_string r | None -> "none"));
  match Hashtbl.find_opt responses 2 with
  | Some (Proto.Answer { cached; objects; _ }) ->
      Alcotest.(check bool) "second is cached" true cached;
      Alcotest.(check (list string)) "cached = cold" expected objects
  | r ->
      Alcotest.failf "unexpected cached response %s"
        (match r with Some r -> Proto.response_to_string r | None -> "none")

(* The queue is FIFO and unbounded by itself; the service bounds it. With
   [max_batch] requests queued, the next request first pumps one full
   batch: the queued requests are answered before it is admitted, and
   none is refused. *)
let test_admission () =
  let q = P.Svc_admission.create () in
  P.Svc_admission.add q 1;
  P.Svc_admission.add q 2;
  Alcotest.(check int) "depth" 2 (P.Svc_admission.depth q);
  Alcotest.(check (option int)) "peek oldest" (Some 1) (P.Svc_admission.peek q);
  Alcotest.(check (list int)) "take fifo" [ 1 ] (P.Svc_admission.take q ~max:1);
  P.Svc_admission.add q 3;
  Alcotest.(check (list int)) "take fifo again" [ 2; 3 ]
    (P.Svc_admission.take q ~max:5);
  Alcotest.(check int) "empty" 0 (P.Svc_admission.depth q);
  let b, svc = make_service () in
  let max_batch = service_config.P.Service.max_batch in
  let v = b.P.Suite.queries.(0) in
  let responses, respond = collector () in
  (* Distinct budgets: each request is its own cache miss. *)
  for i = 0 to max_batch - 1 do
    P.Service.submit svc ~now:0.0 ~respond (query ~budget:(1000 + i) i v)
  done;
  Alcotest.(check int) "a full batch queued" max_batch
    (P.Service.queue_depth svc);
  Alcotest.(check int) "nothing answered yet" 0 (Hashtbl.length responses);
  P.Service.submit svc ~now:0.0 ~respond
    (query ~budget:(1000 + max_batch) max_batch v);
  Alcotest.(check int) "only the newcomer queued" 1 (P.Service.queue_depth svc);
  for i = 0 to max_batch - 1 do
    match Hashtbl.find_opt responses i with
    | Some (Proto.Answer _) | Some (Proto.Timeout _) -> ()
    | r ->
        Alcotest.failf "request %d: expected a real response, got %s" i
          (match r with Some r -> Proto.response_to_string r | None -> "none")
  done;
  Alcotest.(check int) "the pushback is a full flush" 1
    (Serve_mix.stat svc "flushes_full");
  Alcotest.(check int) "nothing refused" 0 (Serve_mix.stat svc "rejected");
  P.Service.shutdown svc

(* The work-conserving batching rule on a logical clock. Each turn
   submits 0-200 queries — duplicates, repeats of answered ones and
   budgets tight enough to time out included — then pumps once, as the
   server does after a read turn. *)
let prop_batching_policy =
  let max_batch = 8 in
  let gen_turn =
    QCheck.Gen.(list_size (0 -- 200) (pair nat (opt (1 -- 100))))
  in
  QCheck.Test.make ~name:"batching policy is work-conserving" ~count:40
    (QCheck.make
       ~print:(fun turns ->
         String.concat "," (List.map (fun t -> string_of_int (List.length t)) turns))
       QCheck.Gen.(list_size (1 -- 8) gen_turn))
    (fun turns ->
      let b, svc =
        make_service ~config:{ service_config with P.Service.max_batch } ()
      in
      let qs = b.P.Suite.queries in
      let replies = Hashtbl.create 256 in
      let respond r =
        (match r with
        | Proto.Rejected { id; reason } ->
            QCheck.Test.fail_reportf "request %d rejected (%s)" id reason
        | _ -> ());
        match Proto.response_id r with
        | Some id ->
            Hashtbl.replace replies id
              (1 + Option.value ~default:0 (Hashtbl.find_opt replies id))
        | None -> QCheck.Test.fail_report "reply without an id"
      in
      let sent = ref 0 in
      List.iteri
        (fun turn reqs ->
          let now = float_of_int turn in
          List.iter
            (fun (k, budget) ->
              P.Service.submit svc ~now ~respond
                (query ?budget !sent qs.(k mod Array.length qs));
              incr sent;
              if P.Service.queue_depth svc > max_batch then
                QCheck.Test.fail_reportf "%d queued, over max_batch %d"
                  (P.Service.queue_depth svc) max_batch)
            reqs;
          let depth = P.Service.queue_depth svc in
          let n = P.Service.pump svc ~now in
          if n > max_batch then
            QCheck.Test.fail_reportf "a batch of %d over max_batch %d" n
              max_batch;
          if P.Service.queue_depth svc <> 0 then
            QCheck.Test.fail_reportf "%d of %d queued requests held back"
              (P.Service.queue_depth svc) depth)
        turns;
      P.Service.drain svc ~now:(float_of_int (List.length turns));
      for id = 0 to !sent - 1 do
        match Hashtbl.find_opt replies id with
        | Some 1 -> ()
        | Some c -> QCheck.Test.fail_reportf "request %d answered %d times" id c
        | None -> QCheck.Test.fail_reportf "request %d never answered" id
      done;
      let get = Serve_mix.stat svc in
      get "flushes_full" + get "flushes_idle" + get "flushes_forced"
      = get "batches")

let test_drain_completes_inflight () =
  let b, svc = make_service () in
  let responses, respond = collector () in
  let n = min 5 (Array.length b.P.Suite.queries) in
  for i = 0 to n - 1 do
    P.Service.submit svc ~now:0.0 ~respond (query i b.P.Suite.queries.(i))
  done;
  Alcotest.(check int) "queued" n (P.Service.queue_depth svc);
  P.Service.drain svc ~now:0.0;
  Alcotest.(check int) "drained" 0 (P.Service.queue_depth svc);
  for i = 0 to n - 1 do
    match Hashtbl.find_opt responses i with
    | Some (Proto.Answer _) | Some (Proto.Timeout _) -> ()
    | r ->
        Alcotest.failf "request %d: expected a real response, got %s" i
          (match r with Some r -> Proto.response_to_string r | None -> "none")
  done

(* Satellite: the drain verb finishes in-flight work, reports how much it
   finished, and flips the service into a rejecting state — the hand-off a
   rolling restart watches. *)
let test_drain_verb () =
  let b, svc = make_service () in
  let responses, respond = collector () in
  let n = min 3 (Array.length b.P.Suite.queries) in
  for i = 0 to n - 1 do
    P.Service.submit svc ~now:0.0 ~respond (query i b.P.Suite.queries.(i))
  done;
  Alcotest.(check bool) "not draining yet" false (P.Service.draining svc);
  P.Service.submit svc ~now:0.0 ~respond (Proto.Drain 100);
  (* Every queued request got a real answer before the drained reply. *)
  for i = 0 to n - 1 do
    match Hashtbl.find_opt responses i with
    | Some (Proto.Answer _) | Some (Proto.Timeout _) -> ()
    | r ->
        Alcotest.failf "request %d: expected a real response, got %s" i
          (match r with Some r -> Proto.response_to_string r | None -> "none")
  done;
  (match Hashtbl.find_opt responses 100 with
  | Some (Proto.Drained { completed; _ }) ->
      Alcotest.(check int) "reports what it finished" n completed
  | r ->
      Alcotest.failf "expected a drained reply, got %s"
        (match r with Some r -> Proto.response_to_string r | None -> "none"));
  Alcotest.(check int) "queue empty" 0 (P.Service.queue_depth svc);
  Alcotest.(check bool) "draining" true (P.Service.draining svc);
  (* New queries bounce with the draining reason; observability verbs keep
     answering so the operator can watch the hand-off. *)
  P.Service.submit svc ~now:1.0 ~respond (query 200 b.P.Suite.queries.(0));
  (match Hashtbl.find_opt responses 200 with
  | Some (Proto.Rejected { reason; _ }) ->
      Alcotest.(check string) "reason" "draining" reason
  | r ->
      Alcotest.failf "expected a draining rejection, got %s"
        (match r with Some r -> Proto.response_to_string r | None -> "none"));
  P.Service.submit svc ~now:1.0 ~respond (Proto.Health 201);
  match Hashtbl.find_opt responses 201 with
  | Some (Proto.Health_reply _) -> ()
  | r ->
      Alcotest.failf "expected health to keep answering, got %s"
        (match r with Some r -> Proto.response_to_string r | None -> "none")

let test_deadline_expired_is_timeout () =
  let b, svc = make_service () in
  let responses, respond = collector () in
  P.Service.submit svc ~now:0.0 ~respond
    (query ~deadline_ms:1.0 1 b.P.Suite.queries.(0));
  (* The batch forms long after the deadline: the service must report
     Timeout `Deadline without fabricating a points-to answer. *)
  ignore (P.Service.pump svc ~now:10.0);
  match Hashtbl.find_opt responses 1 with
  | Some (Proto.Timeout { reason = `Deadline; latency_us; breakdown; _ }) ->
      (* The whole wait happened in the queue; nothing was solved. *)
      Alcotest.(check (float 1e-6)) "never solved" 0.0
        breakdown.P.Svc_span.bd_solve_us;
      Alcotest.(check (float 1e-3)) "breakdown sums to latency" latency_us
        (P.Svc_span.total_us breakdown);
      Alcotest.(check (float 1e-3)) "latency is the queue wait" 10.0e6
        latency_us
  | r ->
      Alcotest.failf "expected deadline timeout, got %s"
        (match r with Some r -> Proto.response_to_string r | None -> "none")

let test_budget_exhausted_is_timeout () =
  let b, svc = make_service () in
  (* Pick a query that genuinely needs more than one step. *)
  let needs_work =
    Array.to_list b.P.Suite.queries
    |> List.find_opt (fun v -> (solve_outcome v).P.Query.steps_walked > 1)
  in
  match needs_work with
  | None -> () (* degenerate suite; nothing to assert *)
  | Some v ->
      let responses, respond = collector () in
      P.Service.submit svc ~now:0.0 ~respond (query ~budget:1 1 v);
      ignore (P.Service.pump svc ~now:0.0);
      (match Hashtbl.find_opt responses 1 with
      | Some (Proto.Timeout { reason = `Budget; _ }) -> ()
      | r ->
          Alcotest.failf "expected budget timeout, got %s"
            (match r with
            | Some r -> Proto.response_to_string r
            | None -> "none"))

let test_stats_count_hits () =
  let b, svc = make_service () in
  let _, respond = collector () in
  let v = b.P.Suite.queries.(0) in
  P.Service.submit svc ~now:0.0 ~respond (query 1 v);
  ignore (P.Service.pump svc ~now:0.0);
  P.Service.submit svc ~now:1.0 ~respond (query 2 v);
  P.Service.submit svc ~now:1.0 ~respond (query 3 v);
  Alcotest.(check bool) "cache hits counted" true
    (Serve_mix.stat svc "cache_hits" >= 2);
  Alcotest.(check bool) "hit rate positive" true
    (match P.Json.member "cache_hit_rate" (P.Service.stats svc) with
    | Some (P.Json.Float r) -> r > 0.0
    | _ -> false);
  (* The stats request carries the same counters over the wire. *)
  let seen = ref None in
  P.Service.submit svc ~now:1.0
    ~respond:(fun r -> seen := Some r)
    (Proto.Stats 9);
  match !seen with
  | Some (Proto.Stats_reply { stats = P.Json.Obj fields; _ }) ->
      (match List.assoc_opt "cache_hits" fields with
      | Some (P.Json.Int h) ->
          Alcotest.(check bool) "stats payload hits" true (h >= 2)
      | _ -> Alcotest.fail "stats payload missing cache_hits")
  | _ -> Alcotest.fail "expected a stats reply"

(* One resolver: [Names] answers every "#<n>" or name reference, the
   service resolves through it, and the cluster CLI hands the router
   [Names.var (Names.of_pag pag)] — so both hops pick the same variable. *)
let test_resolve () =
  let b, svc = make_service () in
  let pag = b.P.Suite.pag in
  let names = P.Names.of_pag pag in
  let nv = P.Pag.n_vars pag and no = P.Pag.n_objs pag in
  let ok what want = function
    | Ok got -> Alcotest.(check int) what want got
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let err what want = function
    | Error got -> Alcotest.(check string) what want got
    | Ok got -> Alcotest.failf "%s resolved to %d" what got
  in
  ok "var by id" (nv - 1) (P.Names.var names (Printf.sprintf "#%d" (nv - 1)));
  ok "obj by id" (no - 1) (P.Names.obj names (Printf.sprintf "#%d" (no - 1)));
  err "var id past the end"
    (Printf.sprintf "variable id %d out of range (0..%d)" nv (nv - 1))
    (P.Names.var names (Printf.sprintf "#%d" nv));
  err "negative obj id"
    (Printf.sprintf "object id -1 out of range (0..%d)" (no - 1))
    (P.Names.obj names "#-1");
  err "malformed var id" "malformed variable id \"#x\"" (P.Names.var names "#x");
  err "malformed obj id" "malformed object id \"#1x\"" (P.Names.obj names "#1x");
  err "unknown var" "unknown variable \"no_such\"" (P.Names.var names "no_such");
  err "unknown obj" "unknown object \"#\"" (P.Names.obj names "#");
  (* First binding wins: every name resolves to the lowest id bearing it.
     The profile repeats some variable names across methods. *)
  let first n name_of =
    let tbl = Hashtbl.create 64 in
    for i = n - 1 downto 0 do
      Hashtbl.replace tbl (name_of i) i
    done;
    tbl
  in
  let first_var = first nv (P.Pag.var_name pag) in
  Alcotest.(check bool) "profile repeats a variable name" true
    (Hashtbl.length first_var < nv);
  for v = 0 to nv - 1 do
    let name = P.Pag.var_name pag v in
    ok name (Hashtbl.find first_var name) (P.Names.var names name)
  done;
  let first_obj = first no (P.Pag.obj_name pag) in
  for o = 0 to no - 1 do
    let name = P.Pag.obj_name pag o in
    ok name (Hashtbl.find first_obj name) (P.Names.obj names name)
  done;
  (* A graph whose objects share a name: the first allocation site wins. *)
  let dup =
    let open P.Pag.Build in
    let g = create () in
    let x = add_var g "x" in
    let o0 = add_obj g "A.new" and o1 = add_obj g "A.new" in
    new_edge g ~dst:x o0;
    new_edge g ~dst:x o1;
    P.Names.of_pag (freeze g)
  in
  ok "duplicate object name" 0 (P.Names.obj dup "A.new");
  ok "second binding by id" 1 (P.Names.obj dup "#1");
  (* The service resolves a name as that first binding: once every
     variable was solved by id, each name is a cache hit on exactly that
     id's entry. *)
  let responses, respond = collector () in
  let ids = Hashtbl.fold (fun name v acc -> (name, v) :: acc) first_var [] in
  List.iteri (fun i (_, v) -> P.Service.submit svc ~now:0.0 ~respond (query i v)) ids;
  P.Service.drain svc ~now:0.0;
  let by_name = List.length ids in
  List.iteri
    (fun i (name, _) ->
      P.Service.submit svc ~now:0.0 ~respond
        (Proto.Query
           { id = by_name + i; var = name; budget = None; deadline_ms = None;
             trace = None }))
    ids;
  List.iteri
    (fun i (name, _) ->
      match
        (Hashtbl.find responses i, Hashtbl.find_opt responses (by_name + i))
      with
      | Proto.Answer a, Some (Proto.Answer n) ->
          Alcotest.(check bool) (name ^ " is a cache hit") true n.cached;
          Alcotest.(check (list string)) name a.objects n.objects
      | Proto.Timeout _, Some (Proto.Timeout n) ->
          Alcotest.(check bool) (name ^ " is a cache hit") true n.cached
      | _ -> Alcotest.failf "%s: by-name reply differs from by-id" name)
    ids;
  P.Service.shutdown svc

(* Satellite: Runner surfaces per-query wall-clock start/end stamps. *)
let test_runner_query_stamps () =
  let b = Lazy.force tiny in
  let r =
    P.Runner.run ~type_level:b.P.Suite.type_level
      ~solver_config:P.Config.default ~mode:P.Mode.Seq ~threads:1
      ~queries:b.P.Suite.queries b.P.Suite.pag
  in
  Array.iter
    (fun qs ->
      if qs.P.Report.qs_end_us < qs.P.Report.qs_start_us then
        Alcotest.fail "qs_end_us precedes qs_start_us";
      if qs.P.Report.qs_start_us <= 0.0 then
        Alcotest.fail "qs_start_us is not an absolute timestamp";
      let lat = qs.P.Report.qs_end_us -. qs.P.Report.qs_start_us in
      if abs_float (lat -. qs.P.Report.qs_latency_us) > 1e-6 then
        Alcotest.fail "qs_latency_us disagrees with the stamps")
    r.P.Report.r_queries

(* -------------------------- spans & health -------------------------- *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Tentpole: an answered query's breakdown accounts for its whole
   latency. Driven with the wall clock so the solve stamps (epoch µs from
   the runner) and the service stamps share a timebase. *)
let test_breakdown_sums_to_latency () =
  let b, svc = make_service () in
  let responses, respond = collector () in
  P.Service.submit svc ~now:(Unix.gettimeofday ()) ~respond
    (query 1 b.P.Suite.queries.(0));
  ignore (P.Service.pump svc ~now:(Unix.gettimeofday ()));
  (match Hashtbl.find_opt responses 1 with
  | Some (Proto.Answer { cached; latency_us; breakdown; _ }) ->
      Alcotest.(check bool) "cold" false cached;
      List.iter
        (fun v ->
          Alcotest.(check bool) "stage non-negative" true (v >= 0.0))
        (P.Svc_span.stage_values breakdown);
      let sum = P.Svc_span.total_us breakdown in
      Alcotest.(check bool) "stages sum to latency" true
        (abs_float (sum -. latency_us) <= (0.05 *. latency_us) +. 1.0)
  | r ->
      Alcotest.failf "expected an answer, got %s"
        (match r with Some r -> Proto.response_to_string r | None -> "none"));
  (* The same stages feed the service counters and the stats payload. *)
  let stage_total =
    List.fold_left
      (fun acc k -> acc + Serve_mix.stat svc k)
      0
      [
        "stage_queue_wait_us"; "stage_batch_wait_us"; "stage_solve_us";
        "stage_respond_us";
      ]
  in
  Alcotest.(check bool) "stage counters accumulated" true (stage_total >= 0);
  (match P.Service.stats svc with
  | P.Json.Obj fields ->
      Alcotest.(check bool) "stats has queue_depth" true
        (List.assoc_opt "queue_depth" fields = Some (P.Json.Int 0));
      Alcotest.(check bool) "stats has stage aggregate" true
        (List.mem_assoc "stage_solve_us" fields)
  | _ -> Alcotest.fail "stats payload is not an object");
  (* The serving mix: every one of its 400 requests is answered (drive
     fails on a lost one), and every answer's or timeout's stages account
     for its latency. *)
  let b = Lazy.force Serve_mix.check in
  let svc = Serve_mix.service b in
  let responses = Serve_mix.drive svc (Serve_mix.mix b) in
  P.Service.shutdown svc;
  Array.iteri
    (fun i r ->
      match r with
      | Proto.Answer { latency_us; breakdown; _ }
      | Proto.Timeout { latency_us; breakdown; _ } ->
          let sum = P.Svc_span.total_us breakdown in
          if abs_float (sum -. latency_us) > (0.05 *. latency_us) +. 1.0 then
            Alcotest.failf "request %d: stages sum to %.1f, latency %.1f" i
              sum latency_us
      | r ->
          Alcotest.failf "request %d: unexpected %s" i
            (Proto.response_to_string r))
    responses

(* The [health] verb's one check is queue starvation. A service that has
   not run a batch for longer than any stall threshold, then reads a
   cache-miss query and a [health] in one turn, is healthy: nothing has
   waited. A request left unpumped past 1 s degrades it, and a pump
   recovers it. Driven on the wall clock's timebase, offset forward, so
   "the last batch ran 6 s ago" holds on every clock the service has. *)
let test_health_verb () =
  let b, svc = make_service () in
  let health now =
    let seen = ref None in
    P.Service.submit svc ~now
      ~respond:(fun r -> seen := Some r)
      (Proto.Health 1);
    match !seen with
    | Some (Proto.Health_reply { healthy; reasons; _ }) -> (healthy, reasons)
    | Some r ->
        Alcotest.failf "expected a health reply, got %s"
          (Proto.response_to_string r)
    | None -> Alcotest.fail "health got no reply"
  in
  let _, respond = collector () in
  let t0 = Unix.gettimeofday () in
  P.Service.submit svc ~now:t0 ~respond (query 1 b.P.Suite.queries.(0));
  ignore (P.Service.pump svc ~now:t0);
  let t = t0 +. 6.0 in
  P.Service.submit svc ~now:t ~respond (query 2 b.P.Suite.queries.(1));
  Alcotest.(check int) "a cache miss is queued" 1 (P.Service.queue_depth svc);
  let healthy, reasons = health t in
  Alcotest.(check (list string)) "no reasons after a quiet spell" [] reasons;
  Alcotest.(check bool) "ok after a quiet spell" true healthy;
  let healthy, reasons = health (t +. 2.0) in
  Alcotest.(check bool) "an unpumped request degrades" false healthy;
  Alcotest.(check (list string)) "the reason is starvation"
    [ "queue starved: oldest admitted waiting 2.0s (threshold 1.0s)" ]
    reasons;
  ignore (P.Service.pump svc ~now:(t +. 2.0));
  let healthy, reasons = health (t +. 2.0) in
  Alcotest.(check bool) "a pump recovers" true healthy;
  Alcotest.(check (list string)) "reasons clear" [] reasons;
  P.Service.shutdown svc

(* ----------------------------- transport ---------------------------- *)

module Transport = P.Svc_transport

(* The framer's contract, as a one-shot split: complete lines (CR
   stripped) up to the first one over the limit, then one overflow —
   also when the over-limit line is the unterminated tail. *)
let split_model ~max_line s =
  let strip l =
    let n = String.length l in
    if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
  in
  let rec go acc = function
    | [] -> (List.rev acc, 0)
    | [ tail ] -> (List.rev acc, if String.length tail > max_line then 1 else 0)
    | l :: _ when String.length l > max_line -> (List.rev acc, 1)
    | l :: rest -> go (strip l :: acc) rest
  in
  go [] (String.split_on_char '\n' s)

(* Feed [s] cut at [cuts], each chunk framed from the middle of a larger
   buffer so offsets are exercised too. *)
let framed ~max_line s cuts =
  let f = Transport.framer ~max_line in
  let lines = ref [] and overflows = ref 0 in
  let cuts =
    List.sort_uniq compare (List.map (fun c -> c mod (String.length s + 1)) cuts)
  in
  let rec go from = function
    | [] -> feed from (String.length s)
    | c :: rest ->
        feed from c;
        go c rest
  and feed a b =
    let b' = Bytes.of_string ("<<" ^ String.sub s a (b - a) ^ ">>") in
    Transport.feed f b' 2 (b - a)
      ~on_line:(fun l -> lines := l :: !lines)
      ~on_overflow:(fun () -> incr overflows)
  in
  go 0 cuts;
  (List.rev !lines, !overflows)

let prop_framer_chunking =
  let stream =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; '\r'; '\n' ]) (int_bound 120))
  in
  QCheck.Test.make ~name:"transport framer ignores chunking" ~count:2000
    QCheck.(
      triple (make ~print:String.escaped stream) (list small_nat)
        (int_range 0 12))
    (fun (s, cuts, max_line) ->
      framed ~max_line s cuts = split_model ~max_line s
      && framed ~max_line s [] = split_model ~max_line s)

let socket_pair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  (Transport.create ~max_line:1024 a, b)

(* Read what [peer] receives until [want] bytes arrived (or 10 s passed),
   flushing [conn] between reads. *)
let drain_into conn peer want =
  let got = Buffer.create want and chunk = Bytes.create 65536 in
  let stop = Unix.gettimeofday () +. 10.0 in
  while Buffer.length got < want && Unix.gettimeofday () < stop do
    (match Unix.read peer chunk 0 (Bytes.length chunk) with
    | n -> Buffer.add_subbytes got chunk 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ());
    Transport.flush_all ~grace:0.01 [ conn ]
  done;
  Buffer.contents got

let test_transport_queue_order () =
  let conn, peer = socket_pair () in
  let big = String.init (2 * 1024 * 1024) (fun i -> Char.chr (97 + (i mod 26))) in
  Transport.send conn big;
  Transport.send conn "second\n";
  Transport.send conn "third\n";
  Alcotest.(check bool) "kernel refused part; still alive" true
    (Transport.alive conn);
  let want = big ^ "second\nthird\n" in
  let got = drain_into conn peer (String.length want) in
  Alcotest.(check int) "every byte arrives" (String.length want)
    (String.length got);
  Alcotest.(check bool) "in order" true (got = want);
  Transport.close conn;
  Unix.close peer

let test_transport_cap_drops () =
  let conn, peer = socket_pair () in
  let before = Transport.dropped () in
  let line = String.make 65536 'x' in
  let sent = ref 0 in
  while Transport.alive conn && !sent < 4 * Transport.output_cap do
    Transport.send conn line;
    sent := !sent + String.length line
  done;
  Alcotest.(check bool) "dropped, not waited on" false (Transport.alive conn);
  Alcotest.(check int) "counted once" (before + 1) (Transport.dropped ());
  Alcotest.(check bool) "before twice the cap" true
    (!sent <= 2 * Transport.output_cap);
  Transport.close conn;
  Unix.close peer

let test_transport_big_reply_whole () =
  let conn, peer = socket_pair () in
  let big = String.init (Transport.output_cap + 4096) (fun i -> Char.chr (65 + (i mod 26))) in
  Transport.send conn (big ^ "\n");
  Alcotest.(check bool) "one reply over the cap is accepted" true
    (Transport.alive conn);
  let got = drain_into conn peer (String.length big + 1) in
  Alcotest.(check bool) "delivered whole" true (got = big ^ "\n");
  Transport.close conn;
  Unix.close peer

let suite =
  ( "svc",
    [
      Alcotest.test_case "protocol request round trip" `Quick
        test_request_round_trip;
      Alcotest.test_case "protocol request errors" `Quick test_request_errors;
      QCheck_alcotest.to_alcotest prop_parsers_total;
      QCheck_alcotest.to_alcotest prop_request_round_trip;
      Alcotest.test_case "protocol response round trip" `Quick
        test_response_round_trip;
      Alcotest.test_case "cache basic" `Quick test_cache_basic;
      Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
      Alcotest.test_case "cache re-put replaces outcome" `Quick
        test_cache_reput_replaces;
      Alcotest.test_case "cache concurrent inserts" `Quick
        test_cache_concurrent_inserts;
      Alcotest.test_case "admission backpressure" `Quick test_admission;
      QCheck_alcotest.to_alcotest prop_batching_policy;
      Alcotest.test_case "cached result equals cold solve" `Quick
        test_cached_equals_cold;
      Alcotest.test_case "drain completes in-flight" `Quick
        test_drain_completes_inflight;
      Alcotest.test_case "drain verb hand-off" `Quick test_drain_verb;
      Alcotest.test_case "expired deadline times out" `Quick
        test_deadline_expired_is_timeout;
      Alcotest.test_case "exhausted budget times out" `Quick
        test_budget_exhausted_is_timeout;
      Alcotest.test_case "stats count cache hits" `Quick test_stats_count_hits;
      Alcotest.test_case "variable resolution" `Quick test_resolve;
      Alcotest.test_case "runner query stamps" `Quick test_runner_query_stamps;
      Alcotest.test_case "breakdown sums to latency" `Quick
        test_breakdown_sums_to_latency;
      Alcotest.test_case "health verb reports starvation only" `Quick
        test_health_verb;
      QCheck_alcotest.to_alcotest prop_framer_chunking;
      Alcotest.test_case "transport queues behind a partial write" `Quick
        test_transport_queue_order;
      Alcotest.test_case "transport drops a peer past the cap" `Quick
        test_transport_cap_drops;
      Alcotest.test_case "transport sends one big reply whole" `Quick
        test_transport_big_reply_whole;
    ] )

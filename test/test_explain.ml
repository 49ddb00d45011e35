(* Answer provenance, end to end.

   Three layers under test. (1) Stable edge ids: the dense CSR numbering
   round-trips through edge_id/edge_of_id on real and random graphs —
   witnesses speak this currency, so it must be total and self-inverse.
   (2) The differential replay suite: every witness the solver returns
   must re-derive its answer edge-by-edge against the frozen PAG
   (Witness.replay), on every workload profile and on random
   edge soups, context-insensitive and -sensitive — a witness that cannot
   be machine-checked is a story, not provenance. (3) The service tier:
   the `explain` verb's wire chain and its metrics, and the rule that
   oracle-tier answers — which never form a batch — report zero
   queue/batch stamps in slowlog and spans. *)

module P = Parcfl
module Pag = P.Pag
module Query = P.Query
module Solver = P.Solver
module W = P.Solver.Witness
module Proto = P.Svc_protocol
module Json = P.Json

let tiny = lazy (Option.get (P.Suite.build_by_name "tiny"))

let session ?(config = P.Config.default) pag =
  Solver.make_session ~config ~ctx_store:(P.Ctx.create_store ()) pag

(* ------------------------- stable edge ids ------------------------- *)

let check_edge_ids pag label =
  let seen = Hashtbl.create 256 in
  let count = ref 0 in
  Pag.iter_edges pag (fun e ->
      incr count;
      match Pag.edge_id pag e with
      | None -> Alcotest.failf "%s: iterated edge has no id" label
      | Some id ->
          if id < 0 || id >= Pag.n_edges pag then
            Alcotest.failf "%s: id %d outside [0, %d)" label id
              (Pag.n_edges pag);
          (* Duplicate parallel edges share the first occurrence's id;
             distinct edges must never collide. *)
          (match Hashtbl.find_opt seen id with
          | Some e' when e' <> e ->
              Alcotest.failf "%s: id %d names two distinct edges" label id
          | _ -> Hashtbl.replace seen id e);
          if Pag.edge_of_id pag id <> e then
            Alcotest.failf "%s: edge_of_id does not invert edge_id" label;
          if not (Pag.has_edge pag e) then
            Alcotest.failf "%s: iterated edge fails has_edge" label);
  Alcotest.(check int)
    (label ^ ": iter_edges covers n_edges")
    (Pag.n_edges pag) !count;
  (* Every id decodes, and decoding is stable under re-encoding. *)
  for id = 0 to Pag.n_edges pag - 1 do
    let e = Pag.edge_of_id pag id in
    match Pag.edge_id pag e with
    | Some id' when id' <= id -> ()
    | Some id' ->
        Alcotest.failf "%s: id %d re-encodes later as %d" label id id'
    | None -> Alcotest.failf "%s: decoded edge %d has no id" label id
  done;
  match Pag.edge_of_id pag (Pag.n_edges pag) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: out-of-range id accepted" label

let test_edge_ids_tiny () =
  check_edge_ids (Lazy.force tiny).P.Suite.pag "tiny"

(* Same edge-soup generator as test_oracle_tier.ml: 8 vars, 5 objects,
   every relation represented. *)
let random_pag_gen =
  QCheck.Gen.(
    let small = int_bound 7 in
    list_size (int_bound 24)
      (oneof
         [
           map2 (fun a b -> `New (a, b)) small (int_bound 4);
           map2 (fun a b -> `Assign (a, b)) small small;
           map2 (fun a b -> `Gassign (a, b)) small small;
           map3 (fun a b f -> `Load (a, b, f)) small small (int_bound 2);
           map3 (fun a f b -> `Store (a, f, b)) small (int_bound 2) small;
           map3 (fun a i b -> `Param (a, i, b)) small (int_bound 3) small;
           map3 (fun a i b -> `Ret (a, i, b)) small (int_bound 3) small;
         ]))

let build_random edges =
  let module B = Pag.Build in
  let b = B.create () in
  let vars = Array.init 8 (fun i -> B.add_var b (Printf.sprintf "v%d" i)) in
  let objects = Array.init 5 (fun i -> B.add_obj b (Printf.sprintf "o%d" i)) in
  List.iter
    (fun e ->
      match e with
      | `New (x, o) -> B.new_edge b ~dst:vars.(x) objects.(o)
      | `Assign (x, y) -> B.assign b ~dst:vars.(x) ~src:vars.(y)
      | `Gassign (x, y) -> B.assign_global b ~dst:vars.(x) ~src:vars.(y)
      | `Load (x, p, f) -> B.load b ~dst:vars.(x) ~base:vars.(p) f
      | `Store (q, f, y) -> B.store b ~base:vars.(q) f ~src:vars.(y)
      | `Param (x, i, y) -> B.param b ~dst:vars.(x) ~site:i ~src:vars.(y)
      | `Ret (x, i, y) -> B.ret b ~dst:vars.(x) ~site:i ~src:vars.(y))
    edges;
  B.freeze b

let prop_edge_ids_random =
  QCheck.Test.make ~name:"edge ids round-trip on random PAGs" ~count:100
    (QCheck.make random_pag_gen)
    (fun edges ->
      check_edge_ids (build_random edges) "random";
      true)

(* --------------------- differential replay ------------------------- *)

(* For each queried variable: solve, then explain every object of the
   answer (one traced re-run for the whole answer, which must agree with
   [explain] on its first object); each witness must replay against the
   frozen graph and resolve to edge ids. Returns how many chains were
   verified. *)
let replay_all ~config ~label pag queries =
  let s = session ~config pag in
  let checked = ref 0 in
  List.iter
    (fun v ->
      match (Solver.points_to s v).Query.result with
      | Query.Out_of_budget -> ()
      | Query.Points_to pairs ->
          let objs = List.map fst pairs in
          let witnesses = Solver.explain_many s v objs in
          (match (objs, witnesses) with
          | o :: _, w :: _ ->
              if Solver.explain s v o <> w then
                Alcotest.failf
                  "%s: explain and explain_many disagree on (#%d, o%d)" label
                  v o
          | _ -> ());
          List.iter2
            (fun o w ->
              match w with
              | None -> () (* traced re-run exhausted its budget *)
              | Some w ->
                  incr checked;
                  if w.W.obj <> o then
                    Alcotest.failf "%s: witness for (#%d, o%d) explains o%d"
                      label v o w.W.obj;
                  (match W.replay pag ~query:v w with
                  | Ok () -> ()
                  | Error e ->
                      Alcotest.failf "%s: witness for (#%d, o%d) fails replay: %s"
                        label v o e);
                  (match W.edge_ids pag w with
                  | Ok ids ->
                      if List.length ids = 0 then
                        Alcotest.failf "%s: empty edge chain for (#%d, o%d)"
                          label v o;
                      List.iter
                        (fun id ->
                          if id < 0 || id >= Pag.n_edges pag then
                            Alcotest.failf "%s: chain id %d out of range"
                              label id)
                        ids
                  | Error e ->
                      Alcotest.failf "%s: chain for (#%d, o%d) has no ids: %s"
                        label v o e);
                  if W.depth w < 1 then
                    Alcotest.failf "%s: depth < 1 for (#%d, o%d)" label v o)
            objs witnesses)
    queries;
  !checked

(* Every workload profile, both sensitivities, a bounded slice of each
   profile's query set — the full sets are a bench, not a test. *)
let test_replay_all_profiles () =
  let total = ref 0 in
  List.iter
    (fun p ->
      let b = P.Suite.build p in
      let queries =
        Array.to_list b.P.Suite.queries
        |> List.sort_uniq compare
        |> List.filteri (fun i _ -> i < 12)
      in
      let pag = b.P.Suite.pag in
      total :=
        !total
        + replay_all
            ~config:{ P.Config.default with context_sensitive = false }
            ~label:(p.P.Profile.name ^ "/ci") pag queries
        + replay_all ~config:P.Config.default
            ~label:(p.P.Profile.name ^ "/cs") pag queries)
    P.Profile.all;
  Alcotest.(check bool)
    "the suite verified a meaningful number of chains" true (!total > 100)

let prop_replay_random =
  QCheck.Test.make ~name:"witnesses replay on random PAGs (CI and CS)"
    ~count:80
    (QCheck.make random_pag_gen)
    (fun edges ->
      let pag = build_random edges in
      let all_vars = List.init (Pag.n_vars pag) Fun.id in
      List.iter
        (fun cs ->
          let label = if cs then "random/cs" else "random/ci" in
          ignore
            (replay_all
               ~config:{ P.Config.default with context_sensitive = cs }
               ~label pag all_vars))
        [ false; true ];
      true)

(* ----------------------- service explain verb ---------------------- *)

let service_config =
  {
    P.Service.default_config with
    P.Service.threads = 1;
    max_batch = 8;
  }

let make_service ?(config = service_config) () =
  let b = Lazy.force tiny in
  (b, P.Service.create ~config ~type_level:b.P.Suite.type_level b.P.Suite.pag)

let submit_collect svc req =
  let got = ref None in
  P.Service.submit svc ~now:0.0 ~respond:(fun r -> got := Some r) req;
  ignore (P.Service.pump svc ~now:0.0);
  P.Service.drain svc ~now:0.0;
  match !got with
  | Some r -> r
  | None -> Alcotest.fail "request got no response"

(* A (var, obj) fact of the tiny bench, from a library-side solve. *)
let known_fact pag queries =
  let s = session pag in
  let found = ref None in
  Array.iter
    (fun v ->
      if !found = None then
        match (Solver.points_to s v).Query.result with
        | Query.Points_to ((o, _) :: _) -> found := Some (v, o)
        | _ -> ())
    queries;
  match !found with
  | Some f -> f
  | None -> Alcotest.fail "tiny bench has no derivable fact"

let histogram_count fams name =
  List.fold_left
    (fun acc f ->
      match f with
      | P.Expo.Histogram { name = n; series; _ } when n = name ->
          List.fold_left (fun a h -> a + h.P.Expo.h_count) acc series
      | _ -> acc)
    0 fams

let stats_int stats name =
  match stats with
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some (Json.Int i) -> i
      | _ -> Alcotest.failf "stats lack integer %S" name)
  | _ -> Alcotest.fail "stats payload is not an object"

let test_service_explain () =
  let b, svc = make_service () in
  let pag = b.P.Suite.pag in
  let v, o = known_fact pag b.P.Suite.queries in
  let var = Printf.sprintf "#%d" v and obj = Printf.sprintf "#%d" o in
  (match submit_collect svc (Proto.Explain { id = 1; var; obj }) with
  | Proto.Explain_reply
      { id = 1; var = vn; obj = on; found = true; depth; latency_us; chain }
    ->
      Alcotest.(check string) "variable name echoed"
        (Pag.var_name pag v) vn;
      Alcotest.(check string) "object name echoed" (Pag.obj_name pag o) on;
      Alcotest.(check bool) "depth positive" true (depth >= 1);
      Alcotest.(check bool) "latency non-negative" true (latency_us >= 0.0);
      (match chain with
      | Json.List (_ :: _ as edges) ->
          (* Every chain element is an edge object with a kind, a
             resolvable stable id and a ctx list; the chain closes with
             the allocation. *)
          let last = List.nth edges (List.length edges - 1) in
          (match last with
          | Json.Obj fields ->
              (match List.assoc_opt "kind" fields with
              | Some (Json.String "new") -> ()
              | _ -> Alcotest.fail "chain does not close with a new edge")
          | _ -> Alcotest.fail "chain element is not an object");
          List.iter
            (fun e ->
              match e with
              | Json.Obj fields ->
                  (match List.assoc_opt "kind" fields with
                  | Some (Json.String k) ->
                      if
                        not
                          (List.mem k
                             [
                               "new"; "assign"; "assign_g"; "load"; "store";
                               "param"; "ret";
                             ])
                      then Alcotest.failf "unknown edge kind %S" k
                  | _ -> Alcotest.fail "edge without a kind");
                  (match List.assoc_opt "edge" fields with
                  | Some (Json.Int id) ->
                      ignore (Pag.edge_of_id pag id)
                  | Some Json.Null -> ()
                  | _ -> Alcotest.fail "edge without a stable id");
                  (match List.assoc_opt "ctx" fields with
                  | Some (Json.List _) -> ()
                  | _ -> Alcotest.fail "edge without context frames")
              | _ -> Alcotest.fail "chain element is not an object")
            edges
      | _ -> Alcotest.fail "found answer carries no chain")
  | r -> Alcotest.failf "unexpected reply %s" (Proto.response_to_string r));
  (* A non-fact misses; the reply still names both endpoints. *)
  let missing =
    let s = session pag in
    let rec hunt o =
      if o >= Pag.n_objs pag then None
      else
        match (Solver.points_to s v).Query.result with
        | Query.Points_to pairs when not (List.mem_assoc o pairs) -> Some o
        | _ -> hunt (o + 1)
    in
    hunt 0
  in
  (match missing with
  | None -> () (* v points to every object — nothing to miss on *)
  | Some o' ->
      (match
         submit_collect svc
           (Proto.Explain
              { id = 2; var; obj = Printf.sprintf "#%d" o' })
       with
      | Proto.Explain_reply { id = 2; found = false; depth = 0; chain; _ } ->
          Alcotest.(check bool) "miss carries an empty chain" true
            (chain = Json.List [])
      | r ->
          Alcotest.failf "unexpected miss reply %s"
            (Proto.response_to_string r)));
  (* Unknown endpoints are wire errors, not crashes. *)
  (match submit_collect svc (Proto.Explain { id = 3; var = "nope"; obj }) with
  | Proto.Error { id = Some 3; _ } -> ()
  | r -> Alcotest.failf "unknown var: %s" (Proto.response_to_string r));
  (match submit_collect svc (Proto.Explain { id = 4; var; obj = "nope" }) with
  | Proto.Error { id = Some 4; _ } -> ()
  | r -> Alcotest.failf "unknown obj: %s" (Proto.response_to_string r));
  (* Metrics: the counters moved and the explain histograms render. *)
  let misses = if missing = None then 0 else 1 in
  Alcotest.(check int) "one explain hit" 1 (Serve_mix.stat svc "explains_ok");
  (match P.Expo.parse_families (P.Service.metrics_text svc) with
  | Ok fams ->
      Alcotest.(check int) "chain depth observed once per hit" 1
        (histogram_count fams "parcfl_witness_chain_depth");
      Alcotest.(check int) "latency observed per resolved explain"
        (1 + misses)
        (histogram_count fams "parcfl_witness_explain_latency_us")
  | Error e -> Alcotest.failf "exposition does not parse: %s" e);
  (* Stats payload: the explain counters sit at the top level. *)
  let stats = P.Service.stats svc in
  Alcotest.(check int) "stats: explains_ok" 1 (stats_int stats "explains_ok");
  Alcotest.(check int) "stats: explains_miss" misses
    (stats_int stats "explains_miss");
  P.Service.shutdown svc

(* The wire chain and the library witness describe the same derivation:
   equal depth, and the wire edge ids replay through Witness.edge_ids. *)
(* The wire chain is the library's witness, edge for edge, and that
   witness replays against the PAG. *)
let check_wire_chain svc pag (v, o) =
  let req =
    Proto.Explain
      { id = 9; var = Printf.sprintf "#%d" v; obj = Printf.sprintf "#%d" o }
  in
  match submit_collect svc req with
  | Proto.Explain_reply { found = true; depth; chain = Json.List edges; _ }
    -> (
      match Solver.explain (session pag) v o with
      | None -> Alcotest.failf "#%d: library explain lost the fact" v
      | Some w -> (
          Alcotest.(check int) "wire depth = library depth" (W.depth w) depth;
          (match W.replay pag ~query:v w with
          | Ok () -> ()
          | Error e -> Alcotest.failf "#%d: replay failed: %s" v e);
          let wire_ids =
            List.filter_map
              (fun e ->
                match e with
                | Json.Obj fields -> (
                    match List.assoc_opt "edge" fields with
                    | Some (Json.Int id) -> Some id
                    | _ -> None)
                | _ -> None)
              edges
          in
          match W.edge_ids pag w with
          | Ok ids ->
              Alcotest.(check (list int)) "wire ids = library chain ids" ids
                wire_ids
          | Error e -> Alcotest.failf "#%d: library chain has no ids: %s" v e))
  | r ->
      Alcotest.failf "#%d: unexpected reply %s" v (Proto.response_to_string r)

(* On the tiny bench's first fact, and on 32 distinct variables of the
   serving mix with a points-to fact each: every explain is found. *)
let test_wire_matches_library () =
  let b, svc = make_service () in
  let pag = b.P.Suite.pag in
  check_wire_chain svc pag (known_fact pag b.P.Suite.queries);
  P.Service.shutdown svc;
  let b = Lazy.force Serve_mix.check in
  let pag = b.P.Suite.pag in
  let s = session pag in
  let facts =
    Array.to_list (Serve_mix.mix b)
    |> List.sort_uniq compare
    |> List.filter_map (fun v ->
           match (Solver.points_to s v).Query.result with
           | Query.Points_to ((o, _) :: _) -> Some (v, o)
           | _ -> None)
    |> List.filteri (fun i _ -> i < 32)
  in
  Alcotest.(check int) "32 facts in the mix" 32 (List.length facts);
  let svc = Serve_mix.service b in
  List.iter (check_wire_chain svc pag) facts;
  P.Service.shutdown svc

(* ------------- oracle tier: zero batch stamps (bugfix) ------------- *)

let test_oracle_tier_zero_stamps () =
  let b = Lazy.force tiny in
  let config =
    {
      service_config with
      P.Service.context_sensitive = false;
      oracle = true;
      slowlog_capacity = 8;
    }
  in
  let svc =
    P.Service.create ~config ~type_level:b.P.Suite.type_level b.P.Suite.pag
  in
  let got = ref None in
  P.Service.submit svc ~now:0.0
    ~respond:(fun r -> got := Some r)
    (Proto.Query
       {
         id = 5;
         var = "#0";
         budget = None;
         deadline_ms = None;
         trace = Some 77;
       });
  ignore (P.Service.pump svc ~now:0.0);
  P.Service.drain svc ~now:0.0;
  (* The tier answered before any batch existed: the wire breakdown and
     the flight-recorder row must both read zero queue/batch wait — a
     stale stamp here would claim the answer waited in a queue it never
     entered. *)
  (match !got with
  | Some (Proto.Answer { breakdown; cached; _ }) ->
      Alcotest.(check bool) "tier answers are not cache hits" false cached;
      Alcotest.(check (float 0.0)) "wire: no queue wait" 0.0
        breakdown.P.Svc_span.bd_queue_wait_us;
      Alcotest.(check (float 0.0)) "wire: no batch wait" 0.0
        breakdown.P.Svc_span.bd_batch_wait_us
  | r ->
      Alcotest.failf "oracle query: unexpected %s"
        (match r with
        | Some r -> Proto.response_to_string r
        | None -> "no response"));
  Alcotest.(check int) "answered by the tier" 1
    (Serve_mix.stat svc "oracle_hits");
  (match P.Svc_slowlog.worst (P.Service.slowlog svc) with
  | [ e ] ->
      Alcotest.(check int) "slowlog: no solver steps" 0 e.P.Svc_slowlog.sl_steps;
      Alcotest.(check (float 0.0)) "slowlog: no queue wait" 0.0
        e.P.Svc_slowlog.sl_breakdown.P.Svc_span.bd_queue_wait_us;
      Alcotest.(check (float 0.0)) "slowlog: no batch wait" 0.0
        e.P.Svc_slowlog.sl_breakdown.P.Svc_span.bd_batch_wait_us;
      Alcotest.(check (option int)) "slowlog: client trace id joined"
        (Some 77) e.P.Svc_slowlog.sl_trace
  | l -> Alcotest.failf "expected one slowlog entry, got %d" (List.length l));
  P.Service.shutdown svc

(* Slowlog trace joining on the ordinary batch path and on cache hits. *)
let test_slowlog_trace_ids () =
  let _, svc = make_service () in
  let ask id trace =
    let got = ref None in
    P.Service.submit svc ~now:0.0
      ~respond:(fun r -> got := Some r)
      (Proto.Query { id; var = "#0"; budget = None; deadline_ms = None; trace });
    ignore (P.Service.pump svc ~now:0.0);
    P.Service.drain svc ~now:0.0;
    match !got with
    | Some (Proto.Answer { cached; _ }) -> cached
    | _ -> Alcotest.fail "query got no answer"
  in
  Alcotest.(check bool) "first ask solves" false (ask 1 (Some 42));
  Alcotest.(check bool) "second ask hits the cache" true (ask 2 (Some 43));
  let entries = P.Svc_slowlog.worst (P.Service.slowlog svc) in
  let trace_of id =
    match List.find_opt (fun e -> e.P.Svc_slowlog.sl_id = id) entries with
    | Some e -> e.P.Svc_slowlog.sl_trace
    | None -> Alcotest.failf "slowlog lost request %d" id
  in
  Alcotest.(check (option int)) "solved entry keeps trace=" (Some 42)
    (trace_of 1);
  Alcotest.(check (option int)) "cache-hit entry keeps trace=" (Some 43)
    (trace_of 2);
  (* The trace id rides into the slowlog JSON payload. *)
  (match P.Svc_slowlog.to_json (P.Service.slowlog svc) with
  | Json.List l ->
      Alcotest.(check bool) "slowlog JSON carries trace fields" true
        (List.exists
           (fun e ->
             match e with
             | Json.Obj fields ->
                 List.assoc_opt "trace" fields = Some (Json.Int 42)
             | _ -> false)
           l)
  | _ -> Alcotest.fail "slowlog JSON is not a list");
  P.Service.shutdown svc

let suite =
  ( "explain",
    [
      Alcotest.test_case "edge ids round-trip (tiny)" `Quick
        test_edge_ids_tiny;
      QCheck_alcotest.to_alcotest prop_edge_ids_random;
      Alcotest.test_case "witness replay on all profiles" `Slow
        test_replay_all_profiles;
      QCheck_alcotest.to_alcotest prop_replay_random;
      Alcotest.test_case "service explain verb" `Quick test_service_explain;
      Alcotest.test_case "wire chain matches the library" `Quick
        test_wire_matches_library;
      Alcotest.test_case "oracle tier: zero batch stamps" `Quick
        test_oracle_tier_zero_stamps;
      Alcotest.test_case "slowlog keeps client trace ids" `Quick
        test_slowlog_trace_ids;
    ] )

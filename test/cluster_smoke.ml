(* CI smoke test for `parcfl cluster`: boot the real binary — a router in
   front of two spawned replicas with snapshot warm-up, live rebalancing
   and cluster tracing on — then:

   1. warm up with 40 pipelined queries and check the *federated* scrape:
      the router's `metrics` must sum the two replicas' latency-histogram
      counts (cross-checked against direct per-replica scrapes), relabel
      per-replica gauges, and expose the router's own parcfl_router_*
      families;
   2. a request line over the protocol limit gets exactly one error from
      the router and a closed connection, a line that only outgrows the
      limit once forwarded gets an error with its id, and neither drains
      a replica;
   3. pipeline a 400-query mix through the router socket, SIGKILL one
      replica after the 150th answer, and require every one of the 400
      queries to come back as a correct answer (cross-checked against an
      in-process solve): the failover replay may move work — and the
      rebalancer may re-home components mid-run — never lose or corrupt
      it;
   4. after the kill, `stats` and `slowlog` must federate over the
      surviving replica (replicas=1, entries tagged with their replica);
   5. after quit, the merged cluster trace must show at least one request
      id in both the router lane (pid 0) and a replica lane (pid >= 1).

   Usage: cluster_smoke.exe <path/to/parcfl_cli.exe> *)

module P = Parcfl
module Proto = P.Svc_protocol

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let deadline = Unix.gettimeofday () +. 300.0

let check_deadline () =
  if Unix.gettimeofday () > deadline then fail "smoke test deadline exceeded"

let connect_path path =
  let rec go tries =
    check_deadline ();
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if tries > 600 then fail "socket %s never accepted" path
        else begin
          Unix.sleepf 0.05;
          go (tries + 1)
        end
  in
  go 0

(* One fresh-connection scrape of a serve socket's metrics verb. *)
let scrape_metrics path =
  let fd = connect_path path in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "metrics 77\n";
  flush oc;
  let line =
    match input_line ic with
    | line -> line
    | exception End_of_file -> fail "%s closed during scrape" path
  in
  let body =
    match Proto.response_of_string line with
    | Ok (Proto.Metrics_reply { body; _ }) -> body
    | Ok r -> fail "scrape of %s got %s" path (Proto.response_to_string r)
    | Error e -> fail "scrape of %s unparseable: %s" path e
  in
  (try close_out oc with Sys_error _ -> ());
  body

let parse_exposition what text =
  match P.Expo.parse_families text with
  | Ok fams -> fams
  | Error e -> fail "%s exposition does not parse: %s" what e

let counter_total name fams =
  let rec go = function
    | [] -> fail "family %s missing from exposition" name
    | P.Expo.Counter { name = n; samples; _ } :: _ when n = name ->
        List.fold_left (fun acc s -> acc +. s.P.Expo.value) 0.0 samples
    | _ :: rest -> go rest
  in
  go fams

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
          () (* the peer refused the rest; its reply is still readable *)
  in
  go 0

(* Every reply line the peer sends until it closes the connection, or
   [`Timeout] with the lines so far. *)
let read_until_close fd ~timeout =
  let stop = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let lines () =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  let rec go () =
    let left = stop -. Unix.gettimeofday () in
    if left <= 0.0 then `Timeout (lines ())
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> `Timeout (lines ())
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> `Closed (lines ())
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception Unix.Unix_error (ECONNRESET, _, _) -> `Closed (lines ()))
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  let r = go () in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  r

let hist_count name fams =
  let rec go = function
    | [] -> fail "family %s missing from exposition" name
    | P.Expo.Histogram { name = n; series; _ } :: _ when n = name ->
        List.fold_left (fun acc s -> acc + s.P.Expo.h_count) 0 series
    | _ :: rest -> go rest
  in
  go fams

let () =
  if Array.length Sys.argv < 2 then fail "usage: cluster_smoke <parcfl_cli.exe>";
  let cli = Sys.argv.(1) in
  if not (Sys.file_exists cli) then fail "no such binary %s" cli;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;

  let bench =
    match P.Suite.build_by_name "tiny" with
    | Some b -> b
    | None -> fail "tiny benchmark missing"
  in
  (* Ground truth from one in-process session — the same PAG and config
     every replica builds. *)
  let session =
    P.Solver.make_session ~config:P.Config.default
      ~ctx_store:(P.Ctx.create_store ()) bench.P.Suite.pag
  in
  let expected v =
    P.Query.objects (P.Solver.points_to session v).P.Query.result
    |> List.map (P.Pag.obj_name bench.P.Suite.pag)
    |> List.sort_uniq compare
  in
  let mix = P.Suite.query_mix ~seed:0 ~hot_share:0.75 bench ~n:64 in
  if Array.length mix = 0 then fail "tiny benchmark has no queries";
  let n_requests = 400 in
  let var_of i = mix.(i mod Array.length mix) in

  let sock =
    Printf.sprintf "%s/parcfl_cluster_smoke_%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let trace_path = sock ^ ".trace.json" in

  (* Boot the cluster with its stdout piped so we learn the replica pids.
     Rebalancing and tracing are both on: the run exercises live
     migration under load, and the exit path must merge the lanes. *)
  let from_child_r, from_child_w = Unix.pipe ~cloexec:false () in
  let cluster_pid =
    Unix.create_process cli
      [|
        cli; "cluster"; "-b"; "tiny"; "--socket"; sock; "-r"; "2";
        "--preseed"; "-t"; "1"; "--poll-ms"; "100";
        "--rebalance-ms"; "150"; "--trace-out"; trace_path;
      |]
      Unix.stdin from_child_w Unix.stderr
  in
  Unix.close from_child_w;
  let cluster_out = Unix.in_channel_of_descr from_child_r in
  let cleanup () =
    (try Unix.kill cluster_pid Sys.sigkill with Unix.Unix_error _ -> ());
    ()
  in
  at_exit cleanup;

  (* Read the boot banner: two replica lines, then the router line. *)
  let replica_pids = Hashtbl.create 2 in
  let rec read_banner () =
    check_deadline ();
    match input_line cluster_out with
    | exception End_of_file -> fail "cluster exited during boot"
    | line ->
        (try
           Scanf.sscanf line "replica %d socket=%s@ pid=%d" (fun id _ pid ->
               Hashtbl.replace replica_pids id pid)
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> ());
        let is_router_line =
          String.length line >= 6 && String.sub line 0 6 = "router"
        in
        if not is_router_line then read_banner ()
  in
  read_banner ();
  let replica0_pid =
    match Hashtbl.find_opt replica_pids 0 with
    | Some pid -> pid
    | None -> fail "boot banner named no replica 0 pid"
  in

  let fd = connect_path sock in
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let send r =
    output_string oc (Proto.request_to_string r ^ "\n");
    flush oc
  in
  let recv () =
    check_deadline ();
    match input_line ic with
    | line -> (
        match Proto.response_of_string line with
        | Ok r -> r
        | Error e -> fail "bad response %S: %s" line e)
    | exception End_of_file -> fail "router closed the connection early"
  in

  (* ------------- phase 1: warm-up + federated scrape ---------------- *)

  let n_warmup = 40 in
  for i = 0 to n_warmup - 1 do
    send
      (Proto.Query
         {
           id = 10000 + i;
           var = Printf.sprintf "#%d" (var_of i);
           budget = None;
           deadline_ms = None;
           trace = None;
         })
  done;
  for _ = 1 to n_warmup do
    match recv () with
    | Proto.Answer _ -> ()
    | r -> fail "warm-up expected an answer, got %s" (Proto.response_to_string r)
  done;

  (* Provenance through the router: explain is shard-affine — it must
     reach the replica that owns the variable and come back with a chain
     the library witness agrees with. *)
  let explain_var = var_of 0 in
  let explain_obj =
    match
      P.Query.objects
        (P.Solver.points_to session explain_var).P.Query.result
    with
    | o :: _ -> o
    | [] -> fail "warm-up variable %d has an empty points-to set" explain_var
  in
  send
    (Proto.Explain
       {
         id = 8100;
         var = Printf.sprintf "#%d" explain_var;
         obj = Printf.sprintf "#%d" explain_obj;
       });
  (match recv () with
  | Proto.Explain_reply
      { id = 8100; found = true; depth; chain = P.Json.List edges; _ } -> (
      if edges = [] then fail "routed explain sent no chain";
      match P.Solver.explain session explain_var explain_obj with
      | None -> fail "library explain lost the routed fact"
      | Some w ->
          if P.Solver.Witness.depth w <> depth then
            fail "routed depth %d, library depth %d" depth
              (P.Solver.Witness.depth w))
  | r -> fail "expected routed explain, got %s" (Proto.response_to_string r));

  (* No query is in flight now, so per-replica counts are stable: the
     router's federated scrape must equal the sum of direct scrapes. *)
  let r0 = parse_exposition "replica 0" (scrape_metrics (sock ^ ".r0")) in
  let r1 = parse_exposition "replica 1" (scrape_metrics (sock ^ ".r1")) in
  send (Proto.Metrics 8000);
  let federated =
    match recv () with
    | Proto.Metrics_reply { id = 8000; body } -> body
    | r -> fail "expected federated metrics, got %s" (Proto.response_to_string r)
  in
  let fed = parse_exposition "federated" federated in
  let lat = "parcfl_svc_latency_us" in
  let direct_sum = hist_count lat r0 + hist_count lat r1 in
  if direct_sum < n_warmup then
    fail "replicas answered %d queries but observed only %d" n_warmup
      direct_sum;
  if hist_count lat fed <> direct_sum then
    fail "federated %s count %d <> per-replica sum %d" lat
      (hist_count lat fed) direct_sum;
  (* Per-replica gauges survive relabelled, one sample per replica. *)
  let queue_depth_replicas =
    List.concat_map
      (function
        | P.Expo.Gauge { name = "parcfl_svc_queue_depth"; samples; _ } ->
            List.filter_map
              (fun s -> List.assoc_opt "replica" s.P.Expo.labels)
              samples
        | _ -> [])
      fed
  in
  if List.sort_uniq compare queue_depth_replicas <> [ "0"; "1" ] then
    fail "federated queue-depth gauge not labelled per replica (got %s)"
      (String.concat "," queue_depth_replicas);
  (* The router's own registry federates in. *)
  if
    not
      (List.exists
         (fun f -> P.Expo.family_name f = "parcfl_router_routed_total")
         fed)
  then fail "router families missing from the federated scrape";
  (* Explain shows in the federated scrape: the chain-depth histogram,
     and the explain above observed one chain somewhere. *)
  let chain_depths =
    List.concat_map
      (function
        | P.Expo.Histogram { name = "parcfl_witness_chain_depth"; series; _ }
          ->
            List.map (fun h -> h.P.Expo.h_count) series
        | _ -> [])
      fed
  in
  if chain_depths = [] then
    fail "parcfl_witness_chain_depth missing from the federated scrape";
  if List.fold_left ( + ) 0 chain_depths < 1 then
    fail "routed explain observed no chain in the federated scrape";

  (* ------------- phase 2: oversized request lines -------------------- *)

  (* A line over the protocol's request limit is refused by the router
     itself: exactly one error, then the connection closes. No replica
     ever sees the line, so none is drained. *)
  let big_fd = connect_path sock in
  write_all big_fd
    (Printf.sprintf "explain 3 #%d %s\n" explain_var
       (String.make 100_000 'o'));
  (match read_until_close big_fd ~timeout:10.0 with
  | `Timeout got ->
      fail "oversized line: no close within 10s (got %d lines)"
        (List.length got)
  | `Closed [ line ] -> (
      match Proto.response_of_string line with
      | Ok (Proto.Error { id = None; reason = "request line too long" }) -> ()
      | _ -> fail "oversized line answered %S" line)
  | `Closed lines ->
      fail "oversized line got %d replies, want exactly one"
        (List.length lines));
  (* A line inside the limit whose forwarded form (longer replica id) is
     not: the router answers it with the client's id and keeps the
     connection. *)
  let var = Printf.sprintf "#%d" explain_var in
  let fits =
    Proto.max_request_line - String.length (Printf.sprintf "explain 3 %s " var)
  in
  send (Proto.Explain { id = 3; var; obj = String.make fits 'o' });
  (match recv () with
  | Proto.Error { id = Some 3; reason = "request line too long" } -> ()
  | r ->
      fail "line over the limit once forwarded: got %s"
        (Proto.response_to_string r));
  send (Proto.Ping 8200);
  (match recv () with
  | Proto.Pong 8200 -> ()
  | r -> fail "expected pong after refusal, got %s" (Proto.response_to_string r));
  (* Several health-poll rounds later, both replicas are still live. *)
  Unix.sleepf 0.5;
  send (Proto.Metrics 8201);
  (match recv () with
  | Proto.Metrics_reply { id = 8201; body } ->
      let fams = parse_exposition "federated" body in
      let drains = counter_total "parcfl_router_drains_total" fams in
      if drains <> 0.0 then
        fail "oversized lines drained %.0f replica(s)" drains
  | r -> fail "expected metrics, got %s" (Proto.response_to_string r));

  (* ------------- phase 3: failover under pipelined load -------------- *)

  for i = 0 to n_requests - 1 do
    send
      (Proto.Query
         {
           id = i;
           var = Printf.sprintf "#%d" (var_of i);
           budget = None;
           deadline_ms = None;
           trace = None;
         })
  done;

  let answers : (int, string list) Hashtbl.t = Hashtbl.create n_requests in
  let killed = ref false in
  for k = 1 to n_requests do
    (match recv () with
    | Proto.Answer { id; objects; _ } ->
        if Hashtbl.mem answers id then fail "query %d answered twice" id;
        if id < 0 || id >= n_requests then fail "answer for unknown id %d" id;
        Hashtbl.replace answers id objects
    | r ->
        fail "expected an answer, got %s (after %d answers)"
          (Proto.response_to_string r) (Hashtbl.length answers));
    if k = 150 && not !killed then begin
      (* Mid-load failure: replica 0 dies hard. Its queued and future
         work must move to replica 1 without losing an answer. *)
      killed := true;
      (try Unix.kill replica0_pid Sys.sigkill
       with Unix.Unix_error _ -> fail "could not kill replica 0")
    end
  done;
  if not !killed then fail "never reached the kill point";

  (* Zero lost, zero incorrect: every id answered, every answer equal to
     the in-process solve — across failover replay *and* any rebalance
     migrations the 150 ms re-scan performed mid-run. *)
  for i = 0 to n_requests - 1 do
    match Hashtbl.find_opt answers i with
    | None -> fail "query %d was lost" i
    | Some objects ->
        if objects <> expected (var_of i) then
          fail "query %d: wrong points-to set after failover" i
  done;

  (* The cluster keeps reporting healthy on the surviving replica, and
     names the drained one. *)
  send (Proto.Health 9000);
  (match recv () with
  | Proto.Health_reply { id = 9000; healthy; reasons } ->
      if not healthy then
        fail "cluster degraded after failover: %s" (String.concat "; " reasons);
      if not (List.exists (fun r -> String.length r > 0) reasons) then
        fail "health report does not name the drained replica"
  | r -> fail "expected health, got %s" (Proto.response_to_string r));

  (* --------- phase 4: federation over the surviving replica ---------- *)

  send (Proto.Stats 9100);
  (match recv () with
  | Proto.Stats_reply { id = 9100; stats } -> (
      (match P.Json.member "replicas" stats with
      | Some (P.Json.Int 1) -> ()
      | _ -> fail "post-kill stats must federate over exactly 1 replica");
      match P.Json.member "totals" stats with
      | Some (P.Json.Obj (_ :: _)) -> ()
      | _ -> fail "federated stats carry no totals")
  | r -> fail "expected federated stats, got %s" (Proto.response_to_string r));

  send (Proto.Slowlog { id = 9200; limit = Some 5 });
  (match recv () with
  | Proto.Slowlog_reply { id = 9200; entries = P.Json.List entries } ->
      if entries = [] then fail "federated slowlog is empty after 400 queries";
      List.iter
        (fun e ->
          match P.Json.member "replica" e with
          | Some (P.Json.Int 1) -> ()
          | _ -> fail "slowlog entry not tagged with the surviving replica")
        entries
  | r -> fail "expected federated slowlog, got %s" (Proto.response_to_string r));

  send Proto.Quit;
  close_out oc;
  let _, status = Unix.waitpid [] cluster_pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "cluster exited %d" n
  | Unix.WSIGNALED n -> fail "cluster killed by signal %d" n
  | Unix.WSTOPPED n -> fail "cluster stopped by signal %d" n);

  (* -------------- phase 5: the merged cluster trace ------------------ *)

  let trace_text =
    match In_channel.with_open_bin trace_path In_channel.input_all with
    | text -> text
    | exception Sys_error e -> fail "no merged trace: %s" e
  in
  let trace =
    match P.Json.of_string trace_text with
    | Ok t -> t
    | Error e -> fail "merged trace does not parse: %s" e
  in
  let events =
    match P.Json.member "traceEvents" trace with
    | Some (P.Json.List l) -> l
    | _ -> fail "merged trace has no traceEvents"
  in
  let request_id pid_want e =
    match
      (P.Json.member "pid" e, P.Json.member "name" e, P.Json.member "args" e)
    with
    | Some (P.Json.Int pid), Some (P.Json.String "request"), Some args
      when pid_want pid -> (
        match P.Json.member "id" args with
        | Some (P.Json.Int id) -> Some id
        | _ -> None)
    | _ -> None
  in
  let router_ids =
    List.filter_map (request_id (fun pid -> pid = 0)) events
  in
  let replica_ids =
    List.filter_map (request_id (fun pid -> pid >= 1)) events
  in
  if router_ids = [] then fail "merged trace has no router-lane requests";
  if replica_ids = [] then fail "merged trace has no replica-lane requests";
  let correlated =
    List.exists (fun id -> List.mem id router_ids) replica_ids
  in
  if not correlated then
    fail "no request id appears in both the router and a replica lane";

  (try Sys.remove sock with Sys_error _ -> ());
  (try Sys.remove trace_path with Sys_error _ -> ());
  Array.iter
    (fun suffix ->
      try Sys.remove (sock ^ suffix) with Sys_error _ -> ())
    [| ".r0"; ".r1"; ".r0.trace.json"; ".r1.trace.json"; ".jmpsnap" |];
  Printf.printf
    "cluster smoke: ok (%d answers, replica 0 killed at 150, federated \
     scrape consistent, trace lanes correlated)\n"
    n_requests

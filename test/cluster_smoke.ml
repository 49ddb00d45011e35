(* CI smoke test for `parcfl cluster`: boot the real binary — a router in
   front of two spawned replicas with cluster tracing on — then:

   1. warm up with 40 pipelined queries and check the *federated* scrape:
      the router's `metrics` must sum the two replicas' latency-histogram
      counts (cross-checked against direct per-replica scrapes), relabel
      per-replica gauges, and expose the router's own parcfl_router_*
      families;
   2. a request line over the protocol limit gets exactly one error from
      the router and a closed connection, a line that only outgrows the
      limit once forwarded gets an error with its id, and neither drains
      a replica;
   3. valid queries pipelined between malformed lines (garbage, unknown
      verbs, bad ids): each bad line gets exactly one error, and every
      valid id is answered exactly once, with its own id;
   4. slow reader: a client pipelines 240 KB of `stats` and never reads;
      another client's pings and queries keep a p95 under 100 ms, the
      non-reader is dropped and counted, and no replica drops the
      router's connection or is drained (each `stats` is answered from a
      replica scrape, so the router must not ask for one per line);
   5. stalled replica: replica 0 is SIGSTOPped under a pipelined query
      mix; the router keeps answering ping (p95 under 100 ms), drains it within
      health_timeout + poll_interval, answers every query correctly by
      replay, and re-admits it within k_readmit polls of SIGCONT;
   6. pipeline a 400-query mix through the router socket, SIGKILL one
      replica after the 150th answer, and require every one of the 400
      queries to come back as a correct answer (cross-checked against an
      in-process solve): the failover replay may move work, never lose
      or corrupt it;
   7. after the kill, `stats` and `slowlog` must federate over the
      surviving replica (replicas=1, entries tagged with their replica);
   8. after quit, the merged cluster trace must show at least one request
      id in both the router lane (pid 0) and a replica lane (pid >= 1);
   9. oracle ride-along: boot a second, context-insensitive cluster with
      `--oracle` (replica 0 builds the tier and exports its rows, replica
      1 arms its tier from that `.oraclesnap` file); every plain query
      must come back with the in-process oracle's row, and the federated
      `stats` must show both replicas' tiers live and one thread each,
      one oracle hit per query in its totals, and no summed gauge
      (`threads`, `oracle_live`, `queue_depth`) there; every variable
      name of the profile, routed by name, must come back with its first
      binding's oracle row (the router and the replicas resolve names
      through one function);
  10. quit drains: `query 1 #5` and `quit` in one write get the query's
      answer, and the router and both replicas exit within 1 s.

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

let gauge_total name fams =
  let rec go = function
    | [] -> fail "family %s missing from exposition" name
    | P.Expo.Gauge { name = n; samples; _ } :: _ when n = name ->
        List.fold_left (fun acc s -> acc +. s.P.Expo.value) 0.0 samples
    | _ :: rest -> go rest
  in
  go fams

(* A raw-fd line reader, for phases that select over several clients. *)
type reader = {
  fd : Unix.file_descr;
  framer : P.Svc_transport.framer;
  lines : string Queue.t;
}

let reader fd =
  { fd; framer = P.Svc_transport.framer ~max_line:max_int; lines = Queue.create () }

let chunk = Bytes.create 65536

(* One read: queue the lines it completed; [false] at end of stream. *)
let fill r =
  match Unix.read r.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      P.Svc_transport.feed r.framer chunk 0 n ~on_overflow:ignore
        ~on_line:(fun line -> Queue.push line r.lines);
      true
  | exception Unix.Unix_error (ECONNRESET, _, _) -> false

let rec next_line r ~timeout =
  if not (Queue.is_empty r.lines) then Some (Queue.pop r.lines)
  else
    match Unix.select [ r.fd ] [] [] timeout with
    | [], _, _ -> None
    | _ -> if fill r then next_line r ~timeout else None
    | exception Unix.Unix_error (EINTR, _, _) -> next_line r ~timeout

let send_line r line = write_all r.fd (line ^ "\n")

(* One request and its reply, with the round trip in seconds. *)
let round_trip what r req =
  let t0 = Unix.gettimeofday () in
  send_line r (Proto.request_to_string req);
  match next_line r ~timeout:10.0 with
  | None -> fail "%s: no reply in 10s" what
  | Some line -> (
      let dt = Unix.gettimeofday () -. t0 in
      match Proto.response_of_string line with
      | Ok resp -> (resp, dt)
      | Error e -> fail "%s: bad reply %S: %s" what line e)

let router_metrics what r id =
  match round_trip what r (Proto.Metrics id) with
  | Proto.Metrics_reply { body; _ }, _ -> parse_exposition what body
  | resp, _ -> fail "%s: expected metrics, got %s" what (Proto.response_to_string resp)

let p95 samples =
  let a = Array.of_list (List.sort compare samples) in
  a.(int_of_float (0.95 *. float_of_int (Array.length a - 1)))

let hist_count name fams =
  let rec go = function
    | [] -> fail "family %s missing from exposition" name
    | P.Expo.Histogram { name = n; series; _ } :: _ when n = name ->
        List.fold_left (fun acc s -> acc + s.P.Expo.h_count) 0 series
    | _ :: rest -> go rest
  in
  go fams

(* Read a cluster's boot banner (one line per replica, then the router
   line) and return the replica pids by id. *)
let read_banner ic =
  let pids = Hashtbl.create 2 in
  let rec go () =
    check_deadline ();
    match input_line ic with
    | exception End_of_file -> fail "cluster exited during boot"
    | line ->
        (try
           Scanf.sscanf line "replica %d socket=%s@ pid=%d" (fun id _ pid ->
               Hashtbl.replace pids id pid)
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> ());
        if not (String.length line >= 6 && String.sub line 0 6 = "router")
        then go ()
  in
  go ();
  pids

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
     Tracing is on: the exit path must merge the lanes. *)
  let from_child_r, from_child_w = Unix.pipe ~cloexec:false () in
  let cluster_pid =
    Unix.create_process cli
      [|
        cli; "cluster"; "-b"; "tiny"; "--socket"; sock; "-r"; "2";
        "-t"; "1"; "--poll-ms"; "100"; "--trace-out"; trace_path;
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

  let replica_pids = read_banner cluster_out in
  (* A failed check must not leave replicas behind (or stopped). *)
  at_exit (fun () ->
      Hashtbl.iter
        (fun _ pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        replica_pids);
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

  let query_line id v =
    Proto.request_to_string
      (Proto.Query
         {
           id;
           var = Printf.sprintf "#%d" v;
           budget = None;
           deadline_ms = None;
           trace = None;
         })
  in

  (* ------------- phase 3: no mis-correlated ids ---------------------- *)

  (* Valid queries interleaved with lines the router must refuse itself:
     unparseable ones get an id-less error, a resolvable-looking query
     with a bad variable gets an error with its own id. Every valid id
     comes back exactly once, carrying the answer for its own variable. *)
  let m = reader (connect_path sock) in
  let bad =
    [|
      ("garbage \001\255 line", None);
      ("frobnicate 5", None);
      ("query 7x #3", None);
      ("query 8301 #abc", Some 8301);
      ("query 8302 #99999999", Some 8302);
      ("stats", None);
    |]
  in
  let n_valid = 60 in
  for i = 0 to n_valid - 1 do
    send_line m (query_line (8400 + i) (var_of i));
    let line, _ = bad.(i mod Array.length bad) in
    if i < 2 * Array.length bad then send_line m line
  done;
  let n_bad = 2 * Array.length bad in
  let valid_seen = Hashtbl.create n_valid in
  let errors = ref [] in
  for _ = 1 to n_valid + n_bad do
    match next_line m ~timeout:10.0 with
    | None -> fail "malformed-lines leg: a reply is missing"
    | Some line -> (
        match Proto.response_of_string line with
        | Ok (Proto.Answer { id; objects; _ }) ->
            if id < 8400 || id >= 8400 + n_valid then
              fail "malformed-lines leg: answer for foreign id %d" id;
            if Hashtbl.mem valid_seen id then
              fail "malformed-lines leg: id %d answered twice" id;
            if objects <> expected (var_of (id - 8400)) then
              fail "malformed-lines leg: id %d carries another answer" id;
            Hashtbl.replace valid_seen id ()
        | Ok (Proto.Error { id; _ }) -> errors := id :: !errors
        | _ -> fail "malformed-lines leg: unexpected reply %S" line)
  done;
  if Hashtbl.length valid_seen <> n_valid then
    fail "malformed-lines leg: %d of %d valid ids answered"
      (Hashtbl.length valid_seen) n_valid;
  let want_errors =
    List.sort compare
      (List.map snd (Array.to_list bad) @ List.map snd (Array.to_list bad))
  in
  if List.sort compare !errors <> want_errors then
    fail "malformed-lines leg: errors do not match the bad lines one-to-one";
  (* Nothing else arrives: the next reply is the pong. *)
  (match round_trip "malformed-lines leg" m (Proto.Ping 8500) with
  | Proto.Pong 8500, _ -> ()
  | r, _ -> fail "malformed-lines leg: stray reply %s" (Proto.response_to_string r));
  Unix.close m.fd;

  (* ------------- phase 4: a client that never reads ------------------ *)

  (* Client A pipelines 240 KB of stats and never reads. The router must
     drop A once its queued replies pass the output cap, without holding
     up client B or letting either replica's connection back up. *)
  let a = connect_path sock in
  let flood = Buffer.create (256 * 1024) in
  let k = ref 0 in
  while Buffer.length flood < 240 * 1024 do
    Buffer.add_string flood (Printf.sprintf "stats %d\n" !k);
    incr k
  done;
  (* Non-blocking, so a router that stops reading A fails B's checks
     below instead of hanging this test. *)
  Unix.set_nonblock a;
  (let s = Buffer.to_bytes flood in
   let rec go off =
     if off < Bytes.length s then
       match Unix.select [] [ a ] [] 2.0 with
       | _, [], _ -> () (* the router stopped reading A *)
       | _ -> (
           match Unix.single_write a s off (Bytes.length s - off) with
           | n -> go (off + n)
           | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> go off
           | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ())
   in
   go 0);
  let b = reader (connect_path sock) in
  let rtts =
    List.init 60 (fun i ->
        let what = "slow-reader leg" in
        let dt =
          if i mod 2 = 0 then (
            match round_trip what b (Proto.Ping i) with
            | Proto.Pong id, dt when id = i -> dt
            | r, _ -> fail "%s: ping %d got %s" what i (Proto.response_to_string r))
          else (
            send_line b (query_line i (var_of i));
            let t0 = Unix.gettimeofday () in
            match next_line b ~timeout:10.0 with
            | None -> fail "%s: query %d unanswered in 10s" what i
            | Some line -> (
                match Proto.response_of_string line with
                | Ok (Proto.Answer { id; objects; _ }) when id = i ->
                    if objects <> expected (var_of i) then
                      fail "%s: query %d: wrong points-to set" what i;
                    Unix.gettimeofday () -. t0
                | _ -> fail "%s: query %d got %S" what i line))
        in
        Unix.sleepf 0.01;
        dt)
  in
  if p95 rtts > 0.1 then
    fail "slow-reader leg: client B p95 %.1f ms with a non-reading client"
      (p95 rtts *. 1000.0);
  (let a = reader a in
   let stop = Unix.gettimeofday () +. 10.0 in
   let rec drain () =
     if Unix.gettimeofday () > stop then
       fail "slow-reader leg: client A was never dropped";
     match Unix.select [ a.fd ] [] [] 1.0 with
     | [], _, _ -> drain ()
     | _ -> if fill a then drain ()
   in
   drain ();
   Unix.close a.fd);
  let fams = router_metrics "slow-reader leg" b 8600 in
  if counter_total "parcfl_router_slow_peers_dropped_total" fams <> 1.0 then
    fail "slow-reader leg: router did not count exactly one dropped peer";
  if counter_total "parcfl_svc_slow_peers_dropped_total" fams <> 0.0 then
    fail "slow-reader leg: a replica dropped the router's connection";
  if counter_total "parcfl_router_drains_total" fams <> 0.0 then
    fail "slow-reader leg: a replica was drained";

  (* ------------- phase 5: a stalled replica --------------------------- *)

  (* SIGSTOP replica 0 under a pipelined mix. Client B pings every 20 ms;
     client D's federated metrics request waits on the stopped replica,
     so its reply lands when the router drains it. *)
  let poll_interval = 0.1 and health_timeout = 5.0 and k_readmit = 3 in
  let q = reader (connect_path sock) in
  let d = reader (connect_path sock) in
  (* About 300 KB of queries: more than a socket buffer holds, so a
     router that writes to the stopped replica blocking would wedge. Q is
     written as the router takes it, inside the loop below. *)
  let n_stall = 12000 in
  let mix = Buffer.create (n_stall * 26) in
  for i = 0 to n_stall - 1 do
    Buffer.add_string mix (query_line (20000 + i) (var_of i) ^ "\n")
  done;
  let mix = Buffer.to_bytes mix and mix_off = ref 0 in
  Unix.set_nonblock q.fd;
  let write_mix () =
    match Unix.single_write q.fd mix !mix_off (Bytes.length mix - !mix_off) with
    | n -> mix_off := !mix_off + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  (* The mix is in flight when the replica stops. *)
  write_mix ();
  Unix.sleepf 0.005;
  let t_stop = Unix.gettimeofday () in
  (try Unix.kill replica0_pid Sys.sigstop
   with Unix.Unix_error _ -> fail "could not stop replica 0");
  send_line d (Proto.request_to_string (Proto.Metrics 8700));
  let pings = ref [] and ping_sent = ref None and next_ping = ref 0 in
  let ping_due = ref 0.0 in
  let answered = Hashtbl.create n_stall in
  let drained_at = ref None in
  let stall_deadline = t_stop +. 30.0 in
  while !drained_at = None || Hashtbl.length answered < n_stall do
    let now = Unix.gettimeofday () in
    if now > stall_deadline then
      fail "stalled-replica leg: %d/%d answers, drain %s after 30s"
        (Hashtbl.length answered) n_stall
        (if !drained_at = None then "not seen" else "seen");
    (match !ping_sent with
    | Some t0 when now -. t0 > 1.0 ->
        fail "stalled-replica leg: ping unanswered after %.0f ms"
          ((now -. t0) *. 1000.0)
    | None when now >= !ping_due ->
        send_line b (Proto.request_to_string (Proto.Ping !next_ping));
        ping_sent := Some now;
        ping_due := now +. 0.02
    | _ -> ());
    let fds = [ b.fd; q.fd ] @ if !drained_at = None then [ d.fd ] else [] in
    let q_out = if !mix_off < Bytes.length mix then [ q.fd ] else [] in
    let ready, writable, _ = Unix.select fds q_out [] 0.005 in
    if writable <> [] then write_mix ();
    if List.mem b.fd ready && not (fill b) then fail "router closed client B";
    if List.mem q.fd ready && not (fill q) then fail "router closed client Q";
    if List.mem d.fd ready && not (fill d) then fail "router closed client D";
    Queue.iter
      (fun line ->
        match (Proto.response_of_string line, !ping_sent) with
        | Ok (Proto.Pong id), Some t0 when id = !next_ping ->
            pings := (Unix.gettimeofday () -. t0) :: !pings;
            incr next_ping;
            ping_sent := None
        | _ -> fail "stalled-replica leg: client B got %S" line)
      b.lines;
    Queue.clear b.lines;
    Queue.iter
      (fun line ->
        match Proto.response_of_string line with
        | Ok (Proto.Answer { id; objects; _ }) ->
            let i = id - 20000 in
            if i < 0 || i >= n_stall || Hashtbl.mem answered i then
              fail "stalled-replica leg: unexpected answer id %d" id;
            if objects <> expected (var_of i) then
              fail "stalled-replica leg: query %d: wrong points-to set" id;
            Hashtbl.replace answered i ()
        | _ -> fail "stalled-replica leg: expected an answer, got %S" line)
      q.lines;
    Queue.clear q.lines;
    match Queue.take_opt d.lines with
    | None -> ()
    | Some line -> (
        drained_at := Some (Unix.gettimeofday () -. t_stop);
        match Proto.response_of_string line with
        | Ok (Proto.Metrics_reply { body; _ }) ->
            let fams = parse_exposition "stalled-replica leg" body in
            if counter_total "parcfl_router_drains_total" fams <> 1.0 then
              fail "stalled-replica leg: replica 0 was not drained";
            if gauge_total "parcfl_router_live_replicas" fams <> 1.0 then
              fail "stalled-replica leg: replica 0 still live"
        | _ -> fail "stalled-replica leg: expected metrics, got %S" line)
  done;
  (* Pings stay within 100 ms at the 95th percentile; the 1 s cap above
     tolerates one scheduling hiccup on a loaded host, never a router
     wedged on the stopped replica. *)
  if p95 !pings > 0.1 then
    fail "stalled-replica leg: ping p95 %.1f ms" (p95 !pings *. 1000.0);
  let drain_s = Option.get !drained_at in
  (* The first unanswered probe leaves at most one poll interval after the
     stop and expires health_timeout later; 250 ms covers this test's own
     scheduling. *)
  if drain_s > health_timeout +. poll_interval +. 0.25 then
    fail "stalled-replica leg: drained after %.2fs" drain_s;
  let t_cont = Unix.gettimeofday () in
  (try Unix.kill replica0_pid Sys.sigcont
   with Unix.Unix_error _ -> fail "could not continue replica 0");
  let rec await_readmit id =
    let fams = router_metrics "stalled-replica leg" d id in
    if gauge_total "parcfl_router_live_replicas" fams = 2.0 then
      Unix.gettimeofday () -. t_cont
    else if Unix.gettimeofday () -. t_cont > 10.0 then
      fail "stalled-replica leg: replica 0 not re-admitted 10s after SIGCONT"
    else begin
      Unix.sleepf 0.02;
      await_readmit (id + 1)
    end
  in
  let readmit_s = await_readmit 8701 in
  if readmit_s > (float_of_int k_readmit *. poll_interval) +. 0.25 then
    fail "stalled-replica leg: re-admitted %.2fs after SIGCONT" readmit_s;
  List.iter (fun r -> Unix.close r.fd) [ b; q; d ];
  Printf.printf
    "cluster smoke: stalled replica drained after %.2fs, re-admitted %.2fs \
     after SIGCONT, %d pings (max %.1f ms)\n%!"
    drain_s readmit_s (List.length !pings)
    (List.fold_left Float.max 0.0 !pings *. 1000.0);

  (* ------------- phase 6: failover under pipelined load -------------- *)

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
     the in-process solve — across failover replay. *)
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

  (* --------- phase 7: federation over the surviving replica ---------- *)

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

  (* -------------- phase 8: the merged cluster trace ------------------ *)

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

  (* --------------- phase 9: oracle ride-along ----------------------- *)

  let osock = sock ^ ".oracle" in
  let oracle_r, oracle_w = Unix.pipe ~cloexec:false () in
  let oracle_pid =
    Unix.create_process cli
      [|
        cli; "cluster"; "-b"; "tiny"; "--socket"; osock; "-r"; "2"; "-t"; "1";
        "--insensitive"; "--oracle";
      |]
      Unix.stdin oracle_w Unix.stderr
  in
  Unix.close oracle_w;
  at_exit (fun () ->
      try Unix.kill oracle_pid Sys.sigkill with Unix.Unix_error _ -> ());
  let oracle_replicas = read_banner (Unix.in_channel_of_descr oracle_r) in
  at_exit (fun () ->
      Hashtbl.iter
        (fun _ pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        oracle_replicas);
  let oracle = P.Oracle.build ~generation:0 bench.P.Suite.pag in
  let oracle_row v =
    P.Oracle.points_to_list oracle v
    |> List.map (P.Pag.obj_name bench.P.Suite.pag)
    |> List.sort_uniq compare
  in
  let o = reader (connect_path osock) in
  let n_oracle = 64 in
  for i = 0 to n_oracle - 1 do
    send_line o (query_line (9500 + i) (var_of i))
  done;
  let seen = Hashtbl.create n_oracle in
  for _ = 1 to n_oracle do
    match next_line o ~timeout:10.0 with
    | None -> fail "oracle leg: a reply is missing"
    | Some line -> (
        match Proto.response_of_string line with
        | Ok (Proto.Answer { id; objects; _ })
          when id >= 9500 && id < 9500 + n_oracle
               && not (Hashtbl.mem seen id) ->
            Hashtbl.add seen id ();
            if objects <> oracle_row (var_of (id - 9500)) then
              fail "oracle leg: query %d differs from the oracle row" id
        | _ -> fail "oracle leg: unexpected reply %S" line)
  done;
  (match round_trip "oracle leg" o (Proto.Stats 9600) with
  | Proto.Stats_reply { stats; _ }, _ -> (
      (match P.Json.member "per_replica" stats with
      | Some (P.Json.List ([ _; _ ] as reps)) ->
          (* Gauges stay per replica: each keeps its own live oracle
             and its one thread. *)
          List.iter
            (fun r ->
              let field k =
                Option.bind (P.Json.member "stats" r) (P.Json.member k)
              in
              (match field "oracle_live" with
              | Some (P.Json.Int 1) -> ()
              | _ ->
                  fail "oracle leg: a replica has no live oracle: %s"
                    (P.Json.to_string r));
              match field "threads" with
              | Some (P.Json.Int 1) -> ()
              | _ ->
                  fail "oracle leg: a replica does not report 1 thread: %s"
                    (P.Json.to_string r))
            reps
      | _ -> fail "oracle leg: stats do not federate over 2 replicas");
      let totals =
        Option.value (P.Json.member "totals" stats) ~default:P.Json.Null
      in
      (match P.Json.member "oracle_hits" totals with
      | Some (P.Json.Int n) when n = n_oracle -> ()
      | _ ->
          fail "oracle leg: totals.oracle_hits is not %d: %s" n_oracle
            (P.Json.to_string stats));
      (* Totals sum counters only: a summed gauge would report 2 threads
         and 2 live oracles for a cluster of two 1-thread replicas. *)
      List.iter
        (fun k ->
          if P.Json.member k totals <> None then
            fail "oracle leg: totals sums the gauge %s: %s" k
              (P.Json.to_string stats))
        [ "threads"; "oracle_live"; "queue_depth" ])
  | r, _ ->
      fail "oracle leg: expected stats, got %s" (Proto.response_to_string r));
  (* A routed reply is the replica's bytes with only the id spliced. A
     repeated refined query is a cache hit, whose latency and breakdown
     are all zero, so the two lines can be compared byte for byte: each
     replica answers it twice directly (id 1), then the router once. *)
  let direct = List.map (fun r -> reader (connect_path (osock ^ r))) [ ".r0"; ".r1" ] in
  List.iteri
    (fun k (v, budget) ->
      let line id = Printf.sprintf "query %d #%d budget=%d" id v budget in
      let cached =
        List.map
          (fun d ->
            send_line d (line 1);
            ignore (next_line d ~timeout:10.0);
            send_line d (line 1);
            match next_line d ~timeout:10.0 with
            | Some l -> l
            | None -> fail "splice leg: a replica did not answer")
          direct
      in
      let id = 9700 + k in
      send_line o (line id);
      let routed =
        match next_line o ~timeout:10.0 with
        | Some l -> l
        | None -> fail "splice leg: the router did not answer"
      in
      let prefix = "{\"id\":1," in
      let spliced l =
        let n = String.length prefix in
        if String.length l < n || String.sub l 0 n <> prefix then
          fail "splice leg: replica reply %S has no id prefix" l;
        Printf.sprintf "{\"id\":%d,%s" id (String.sub l n (String.length l - n))
      in
      if not (List.exists (fun l -> spliced l = routed) cached) then
        fail "splice leg: routed %S is no replica's %S with the id changed"
          routed (String.concat " | " cached))
    [ (var_of 0, 100_000); (var_of 1, 1); (var_of 2, 7) ];
  List.iter (fun d -> Unix.close d.fd) direct;
  (* Names resolve at the router as at the replica: each name reaches a
     replica (no routing error) and is answered for its first binding. *)
  let pag = bench.P.Suite.pag in
  let first = Hashtbl.create 64 in
  for v = P.Pag.n_vars pag - 1 downto 0 do
    Hashtbl.replace first (P.Pag.var_name pag v) v
  done;
  let by_name =
    Array.of_list (Hashtbl.fold (fun name v acc -> (name, v) :: acc) first [])
  in
  let n_names = Array.length by_name in
  Array.iteri
    (fun i (name, _) ->
      send_line o
        (Proto.request_to_string
           (Proto.Query
              { id = 9700 + i; var = name; budget = None; deadline_ms = None;
                trace = None })))
    by_name;
  let seen = Hashtbl.create n_names in
  for _ = 1 to n_names do
    match next_line o ~timeout:10.0 with
    | None -> fail "names leg: a reply is missing"
    | Some line -> (
        match Proto.response_of_string line with
        | Ok (Proto.Answer { id; objects; _ })
          when id >= 9700 && id < 9700 + n_names && not (Hashtbl.mem seen id)
          ->
            Hashtbl.add seen id ();
            let name, v = by_name.(id - 9700) in
            if objects <> oracle_row v then
              fail "names leg: %S is not answered as #%d" name v
        | _ -> fail "names leg: unexpected reply %S" line)
  done;
  (* A query pipelined ahead of quit is answered before the cluster goes,
     and going takes no grace period: the router waits only for the
     replies it owes. *)
  let t_quit = Unix.gettimeofday () in
  write_all o.fd "query 1 #5\nquit\n";
  (match next_line o ~timeout:5.0 with
  | None -> fail "quit leg: the query ahead of quit got no answer"
  | Some line -> (
      match Proto.response_of_string line with
      | Ok (Proto.Answer { id = 1; objects; _ }) ->
          if objects <> oracle_row 5 then
            fail "quit leg: #5 differs from the oracle row"
      | _ -> fail "quit leg: unexpected reply %S" line));
  (match Unix.waitpid [] oracle_pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "oracle cluster did not exit cleanly");
  let quit_s = Unix.gettimeofday () -. t_quit in
  if quit_s > 1.0 then fail "quit leg: the cluster took %.2f s to exit" quit_s;
  (* The router reaps its replicas before it exits; one still running
     would have been killed, not have quit. *)
  Hashtbl.iter
    (fun i pid ->
      match Unix.kill pid 0 with
      | () -> fail "quit leg: replica %d outlived the router" i
      | exception Unix.Unix_error (ESRCH, _, _) -> ())
    oracle_replicas;
  Unix.close o.fd;

  (try Sys.remove sock with Sys_error _ -> ());
  (try Sys.remove trace_path with Sys_error _ -> ());
  Array.iter
    (fun suffix ->
      try Sys.remove (sock ^ suffix) with Sys_error _ -> ())
    [| ".r0"; ".r1"; ".r0.trace.json"; ".r1.trace.json"; ".oracle";
       ".oracle.r0"; ".oracle.r1"; ".oracle.oraclesnap" |];
  Printf.printf
    "cluster smoke: ok (%d answers, replica 0 killed at 150, federated \
     scrape consistent, trace lanes correlated, %d oracle hits over 2 \
     replicas, %d names routed, quit drained in %.2f s)\n"
    n_requests n_oracle n_names quit_s

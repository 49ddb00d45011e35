module Proto = Parcfl_svc.Protocol
module Span = Parcfl_obs.Span
module Transport = Parcfl_svc.Transport
module Tracer = Parcfl_obs.Tracer
module Registry = Parcfl_telemetry.Registry
module Expo = Parcfl_telemetry.Expo
module Json = Parcfl_obs.Json
module Service = Parcfl_svc.Service

(* An unanswered probe older than this counts as a failed poll. *)
let health_timeout = 5.0

(* Consecutive healthy polls a drained replica answers before re-admission. *)
let k_readmit = 3

type client = {
  conn : Transport.conn;
  mutable outstanding : int;  (* forwards and gathers awaiting replicas *)
}

(* A client with this many requests out at the replicas is not read until
   replies come back: its backlog waits in its own socket, not in front
   of other clients' requests at the replicas, and the replies the router
   has to absorb from a replica stay bounded. *)
let max_outstanding = 128

type backend = {
  b_idx : int;
  b_replica : Replica.t;
  mutable b_conn : Transport.conn option;
}

type pending = {
  p_client : client;
  p_orig_id : int;
  p_request : Proto.request;  (* original ids — what a replay re-sends *)
  p_backend : int;  (* a replay builds a fresh pending, never mutates *)
  p_var : int;  (* resolved query variable (trace span), or -1 *)
  (* Router-side span stamps in epoch microseconds; 0 when tracing is
     off (the stamps cost clock reads, so they are taken only when a
     span sink is installed). *)
  p_accept_us : float;
  p_route_us : float;
  p_forward_us : float;
}

(* One federated gather: scattered to every live replica, the replies
   gathered here and merged once the last one lands (or its replica dies —
   a dead replica only shrinks the merge, never wedges it). It answers one
   slowlog or health request, or every metrics and stats request of one
   client read: those share one scrape of each replica. *)
type agg = {
  g_client : client;
  g_requests : Proto.request list;  (* the client's, original ids *)
  mutable g_waiting : int;
  mutable g_replies : (int * Proto.response) list;  (* replica, reply *)
  mutable g_done : bool;
}

type t = {
  poll_interval : float;  (* seconds between health-poll rounds *)
  shard_map : Shard_map.t;
  resolve : string -> (int, string) result;
  failover : Failover.t;
  backends : backend array;
  mutable clients : client list;
  inflight : (int, pending) Hashtbl.t;  (* router id → waiting client *)
  probes : (int, int * float) Hashtbl.t;  (* router id → (backend, sent) *)
  aggs : (int, int * agg) Hashtbl.t;  (* router id → (backend, gather) *)
  mutable next_rid : int;
  mutable next_poll : float;
  mutable stopping : bool;
  on_span : (Tracer.router_span -> unit) option;
  (* Router-side telemetry, federated ahead of the replicas' families. *)
  registry : Registry.t;
  routed : int array;  (* forwards per shard *)
  poll_hist : int array;  (* health-probe round trips, log2 us *)
  mutable replays : int;
  mutable drains : int;
  mutable readmits : int;
}

let log fmt = Printf.eprintf ("[router] " ^^ fmt ^^ "\n%!")
let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------- id plumbing ----------------------------- *)

let request_with_id req id =
  match req with
  | Proto.Query q -> Proto.Query { q with id }
  | Proto.Explain e -> Proto.Explain { e with id }
  | Proto.Stats _ -> Proto.Stats id
  | Proto.Metrics _ -> Proto.Metrics id
  | Proto.Slowlog s -> Proto.Slowlog { s with id }
  | Proto.Health _ -> Proto.Health id
  | Proto.Drain _ -> Proto.Drain id
  | Proto.Ping _ -> Proto.Ping id
  | Proto.Quit -> Proto.Quit

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

(* --------------------------- telemetry ----------------------------- *)

let router_families t =
  let fi = float_of_int in
  let per label a =
    Array.to_list
      (Array.mapi
         (fun i c ->
           { Expo.labels = [ (label, string_of_int i) ]; value = fi c })
         a)
  in
  let inflight_per = Array.make (Array.length t.backends) 0 in
  Hashtbl.iter
    (fun _ p -> inflight_per.(p.p_backend) <- inflight_per.(p.p_backend) + 1)
    t.inflight;
  [
    Expo.Counter
      {
        name = "parcfl_router_routed_total";
        help = "Requests forwarded per shard.";
        samples = per "shard" t.routed;
      };
    Expo.counter ~name:"parcfl_router_replays_total"
      ~help:"Requests replayed onto a survivor after their replica died."
      (fi t.replays);
    Expo.counter ~name:"parcfl_router_drains_total"
      ~help:"Replicas drained (failed polls or dead connections)."
      (fi t.drains);
    Expo.counter ~name:"parcfl_router_slow_peers_dropped_total"
      ~help:
        "Clients and replica connections dropped for letting their queued \
         output outgrow the output cap."
      (fi (Transport.dropped ()));
    Expo.counter ~name:"parcfl_router_readmits_total"
      ~help:"Drained replicas re-admitted after consecutive healthy polls."
      (fi t.readmits);
    Expo.gauge ~name:"parcfl_router_live_replicas"
      ~help:"Replicas currently admitted by failover."
      (fi (Failover.n_live t.failover));
    Expo.Gauge
      {
        name = "parcfl_router_inflight";
        help = "Forwarded requests awaiting a reply, per replica.";
        samples = per "replica" inflight_per;
      };
    Expo.histogram_of_log2 ~name:"parcfl_router_poll_latency_us"
      ~help:"Health-probe round trips, microseconds." t.poll_hist;
  ]

(* ------------------------- connections ----------------------------- *)

let client_send client resp = Transport.reply client.conn resp

let disconnect_backend b =
  Option.iter Transport.close b.b_conn;
  b.b_conn <- None

let ensure_connected b =
  match b.b_conn with
  | Some c -> Ok c
  | None -> (
      match Replica.try_connect b.b_replica with
      | Ok fd ->
          Unix.set_nonblock fd;
          let c = Transport.create ~max_line:Transport.max_reply_line fd in
          b.b_conn <- Some c;
          Ok c
      | Error _ as e -> e)

(* ------------------------ gather completion ------------------------ *)

let replica_indices t = List.init (Array.length t.backends) Fun.id

let drained_reasons t =
  List.filter_map
    (fun i ->
      if Failover.is_live t.failover i then None
      else
        Some
          (Printf.sprintf "replica %d (%s) drained" i
             (Replica.socket t.backends.(i).b_replica)))
    (replica_indices t)

(* A federated [stats] is a view, not a merge of its own: each replica's
   scrape viewed alone, and totals viewed over the counters of their
   merge — so only counters sum, and the ratios are recomputed from the
   summed counters. Gauges have no cluster total. *)
let federated_stats bodies =
  Result.bind (Federation.parse_scrapes bodies) (fun parts ->
      Result.map
        (fun merged ->
          let counters =
            List.filter (function Expo.Counter _ -> true | _ -> false) merged
          in
          Json.Obj
            [
              ("replicas", Json.Int (List.length parts));
              ("totals", Service.view counters);
              ( "per_replica",
                Json.List
                  (List.map
                     (fun (r, fams) ->
                       Json.Obj
                         [
                           ("replica", Json.Int r);
                           ("stats", Service.view fams);
                         ])
                     parts) );
            ])
        (Federation.merge_families parts))

let finish_agg t agg =
  if (not agg.g_done) && agg.g_waiting <= 0 then begin
    agg.g_done <- true;
    agg.g_client.outstanding <- agg.g_client.outstanding - 1;
    (* The replies of the expected kind, per replica. *)
    let gathered pick =
      List.filter_map
        (fun (i, r) -> Option.map (fun x -> (i, x)) (pick r))
        (List.rev agg.g_replies)
    in
    let bodies =
      lazy
        (gathered (function
          | Proto.Metrics_reply { body; _ } -> Some body
          | _ -> None))
    in
    (* Merged once, however many requests share the scrape. *)
    let metrics =
      lazy
        (Federation.merge_metrics ~extra:(Registry.collect t.registry)
           (Lazy.force bodies))
    in
    let stats = lazy (federated_stats (Lazy.force bodies)) in
    let answer req =
      let id = Option.value (Proto.request_id req) ~default:0 in
      let err reason = Proto.Error { id = Some id; reason } in
      let merge xs k =
        if xs = [] then err "no live replica answered" else k xs
      in
      match req with
      | Proto.Metrics _ ->
          merge (Lazy.force bodies) (fun _ ->
              match Lazy.force metrics with
              | Ok body -> Proto.Metrics_reply { id; body }
              | Error reason -> err reason)
      | Proto.Stats _ ->
          merge (Lazy.force bodies) (fun _ ->
              match Lazy.force stats with
              | Ok stats -> Proto.Stats_reply { id; stats }
              | Error reason -> err reason)
      | Proto.Slowlog { limit; _ } ->
          merge
            (gathered (function
              | Proto.Slowlog_reply { entries; _ } -> Some entries
              | _ -> None))
            (fun logs ->
              Proto.Slowlog_reply
                { id; entries = Federation.merge_slowlogs ?limit logs })
      | _ ->
          merge
            (gathered (function
              | Proto.Health_reply { healthy; reasons; _ } ->
                  Some (healthy, reasons)
              | _ -> None))
            (fun verdicts ->
              let healthy, reasons =
                Federation.merge_health ~drained:(drained_reasons t)
                  (List.map (fun (i, (h, r)) -> (i, h, r)) verdicts)
              in
              Proto.Health_reply { id; healthy; reasons })
    in
    (* A client dropped mid-gather is owed nothing: skip the merge. *)
    if Transport.alive agg.g_client.conn then
      List.iter
        (fun req -> client_send agg.g_client (answer req))
        agg.g_requests
  end

(* --------------------- routing and failover ------------------------ *)

let live_indices t =
  List.filter (Failover.is_live t.failover) (replica_indices t)

(* Remove and return the entries of [tbl] that [pred] selects. *)
let take tbl pred =
  let hits =
    Hashtbl.fold (fun k v acc -> if pred v then (k, v) :: acc else acc) tbl []
  in
  List.iter (fun (k, _) -> Hashtbl.remove tbl k) hits;
  hits

(* send → death → drain → replay → send is one recursive knot: a replica
   dying mid-flight must re-route its outstanding requests immediately,
   and the re-route may hit another dead replica. Termination: each
   failed send drains a Live replica (or answers the client with an
   error once none are left), and there are finitely many replicas. *)
let rec backend_send t b line =
  match ensure_connected b with
  | Error e ->
      backend_died t b (Printf.sprintf "connect failed: %s" e);
      false
  | Ok c ->
      Transport.send c line;
      backend_check t b c;
      Transport.alive c

(* A backend connection that failed a send, flush or read, reached end of
   stream, or grew its queue past the cap (the replica stopped reading)
   is a dead replica: drain and replay. *)
and backend_check t b c =
  match b.b_conn with
  | Some c' when c' == c && not (Transport.readable c) ->
      backend_died t b "connection lost"
  | _ -> ()

and backend_died t b reason =
  disconnect_backend b;
  (match Failover.force_drain t.failover b.b_idx with
  | Failover.Drained_now ->
      t.drains <- t.drains + 1;
      log "replica %d drained (%s); re-routing its shards" b.b_idx reason
  | _ -> ());
  (* Probes to the dead replica can never answer: count each as a failed
     poll so a drained replica's healthy streak resets. *)
  ignore (take t.probes (fun (bi, _) -> bi = b.b_idx));
  (* A gather never waits on the dead: its reply just isn't part of the
     merge (broadcast verbs are not replayed — the surviving replicas'
     replies still describe every live shard). *)
  let dead_gathers = List.map snd (take t.aggs (fun (bi, _) -> bi = b.b_idx)) in
  List.iter (fun (_, agg) -> agg.g_waiting <- agg.g_waiting - 1) dead_gathers;
  List.iter (fun (_, agg) -> finish_agg t agg) dead_gathers;
  (* Replay every request that was waiting on it — the cluster loses no
     answers when a replica dies, it only moves them. *)
  let orphans =
    List.map snd (take t.inflight (fun p -> p.p_backend = b.b_idx))
  in
  List.iter
    (fun p -> p.p_client.outstanding <- p.p_client.outstanding - 1)
    orphans;
  List.iter
    (fun p ->
      if Transport.alive p.p_client.conn then begin
        t.replays <- t.replays + 1;
        route t p.p_client p.p_request
      end)
    orphans

(* Route one client request: answered locally (ping, router health,
   resolution errors), forwarded with the id rewritten so concurrent
   clients with overlapping id spaces never collide at the replica, or —
   for the admin verbs — scattered to every live replica and federated. *)
and route t client req =
  match req with
  | Proto.Ping id -> client_send client (Proto.Pong id)
  | Proto.Quit ->
      t.stopping <- true
  | Proto.Query { var; _ } | Proto.Explain { var; _ } -> (
      (* Both resolve a variable and go to the shard that owns its
         component: a query for the answer, an explain for its witness
         chain — re-derived where the answer's component lives. *)
      let accept_us = if t.on_span = None then 0.0 else now_us () in
      match t.resolve var with
      | Error reason ->
          client_send client
            (Proto.Error { id = Proto.request_id req; reason })
      | Ok v ->
          if Failover.n_live t.failover = 0 then
            client_send client
              (Proto.Error
                 { id = Proto.request_id req; reason = "no live replica" })
          else begin
            let idx =
              Shard_map.shard t.shard_map ~live:(Failover.live t.failover) v
            in
            t.routed.(idx) <- t.routed.(idx) + 1;
            let route_us = if t.on_span = None then 0.0 else now_us () in
            forward t client req idx ~var:v ~accept_us ~route_us
          end)
  | Proto.Metrics _ | Proto.Stats _ | Proto.Slowlog _ | Proto.Health _ ->
      scatter t client [ req ]
  | Proto.Drain _ -> (
      (* A single-replica verb: the first live one. *)
      match live_indices t with
      | [] ->
          client_send client
            (Proto.Error
               { id = Proto.request_id req; reason = "no live replica" })
      | idx :: _ ->
          t.routed.(idx) <- t.routed.(idx) + 1;
          forward t client req idx ~var:(-1) ~accept_us:0.0 ~route_us:0.0)

and forward t client req idx ~var ~accept_us ~route_us =
  match Proto.request_id req with
  | None -> () (* unreachable: Quit never reaches here *)
  | Some orig_id ->
      let rid = fresh_rid t in
      (* The replica's trace lane adopts the client-visible id via the
         wire [trace=] option, so the merged cluster trace speaks one id
         for both hops. *)
      let wire =
        match request_with_id req rid with
        | Proto.Query q -> Proto.Query { q with trace = Some orig_id }
        | r -> r
      in
      let line = Proto.request_to_string wire in
      if String.length line > Proto.max_request_line then
        (* The rewritten id and the added trace option can push a line
           that fit the client limit past the replica's; refuse it here
           instead of letting the replica drop the backend connection. *)
        client_send client
          (Proto.Error
             { id = Some orig_id; reason = "request line too long" })
      else begin
        let line = line ^ "\n" in
        let forward_us = if t.on_span = None then 0.0 else now_us () in
        let p =
          {
            p_client = client;
            p_orig_id = orig_id;
            p_request = req;
            p_backend = idx;
            p_var = var;
            p_accept_us = accept_us;
            p_route_us = route_us;
            p_forward_us = forward_us;
          }
        in
        Hashtbl.replace t.inflight rid p;
        client.outstanding <- client.outstanding + 1;
        (* On failure backend_died has already replayed the inflight
           table — this request included. *)
        ignore (backend_send t t.backends.(idx) line)
      end

and scatter t client reqs =
  match reqs with
  | [] -> ()
  | first :: _ -> (
      match live_indices t with
      | [] ->
          List.iter
            (fun req ->
              client_send client
                (Proto.Error
                   { id = Proto.request_id req; reason = "no live replica" }))
            reqs
      | targets ->
          let agg =
            {
              g_client = client;
              g_requests = reqs;
              g_waiting = 0;
              g_replies = [];
              g_done = false;
            }
          in
          client.outstanding <- client.outstanding + 1;
          (* Register the whole fan-out before the first send: a send
             failure mid-scatter re-enters through backend_died, and an
             agg with unregistered members would finish early. *)
          let rids =
            List.map
              (fun idx ->
                let rid = fresh_rid t in
                Hashtbl.replace t.aggs rid (idx, agg);
                agg.g_waiting <- agg.g_waiting + 1;
                (rid, idx))
              targets
          in
          List.iter
            (fun (rid, idx) ->
              (* Skip members whose replica died earlier in this same
                 scatter — backend_died already unregistered them. *)
              if Hashtbl.mem t.aggs rid then begin
                t.routed.(idx) <- t.routed.(idx) + 1;
                (* A stats is answered from the replicas' scrapes
                   (federated_stats), so metrics and stats both ask for
                   one. *)
                let wire =
                  match first with
                  | Proto.Metrics _ | Proto.Stats _ -> Proto.Metrics rid
                  | req -> request_with_id req rid
                in
                let line = Proto.request_to_string wire ^ "\n" in
                ignore (backend_send t t.backends.(idx) line)
              end)
            rids;
          finish_agg t agg)

(* ------------------------- health polling -------------------------- *)

let observe_poll t idx ~healthy =
  match Failover.observe t.failover idx ~healthy with
  | Failover.Drained_now ->
      t.drains <- t.drains + 1;
      log "replica %d drained (failed health poll)" idx
  | Failover.Readmitted ->
      t.readmits <- t.readmits + 1;
      log "replica %d re-admitted" idx
  | Failover.Unchanged -> ()

(* An unanswered probe is a failed poll. Checked every loop turn, so a
   stalled replica drains [health_timeout] after its first unanswered
   probe, not at the next poll round. *)
let expire_probes t ~now =
  take t.probes (fun (_, sent) -> now -. sent > health_timeout)
  |> List.map (fun (_, (idx, _)) -> idx)
  |> List.sort_uniq compare
  |> List.iter (fun idx ->
         observe_poll t idx ~healthy:false;
         (* The connection is wedged, not just slow to answer one verb:
            treat it as dead so inflight work replays and gathers waiting
            on it complete, and the next probe gets a fresh connection. *)
         backend_died t t.backends.(idx) "health probe timed out")

let next_expiry t =
  Hashtbl.fold
    (fun _ (_, sent) acc -> Float.min acc (sent +. health_timeout))
    t.probes infinity

(* Probe everyone — drained replicas too, that's how they come back. A
   failed send is handled like any other, so inflight work is replayed;
   a failed connect is a failed poll. *)
let poll_health t ~now =
  Array.iter
    (fun b ->
      let rid = fresh_rid t in
      let line = Proto.request_to_string (Proto.Health rid) ^ "\n" in
      if Option.is_none b.b_conn && Result.is_error (ensure_connected b) then
        observe_poll t b.b_idx ~healthy:false
      else if backend_send t b line then
        Hashtbl.replace t.probes rid (b.b_idx, now))
    t.backends

(* ---------------------- backend reply handling --------------------- *)

(* A reply to a forwarded request goes on to its client as bytes: the
   replica's rendering with only the id spliced to the client's. *)
let forward_reply t rid p line =
  Hashtbl.remove t.inflight rid;
  p.p_client.outstanding <- p.p_client.outstanding - 1;
  let reply_us = if t.on_span = None then 0.0 else now_us () in
  Option.iter (Transport.send p.p_client.conn)
    (Proto.splice line ~id:p.p_orig_id);
  match (t.on_span, p.p_request) with
  | Some sink, Proto.Query _ ->
      sink
        {
          Tracer.rs_id = p.p_orig_id;
          rs_rid = rid;
          rs_replica = p.p_backend;
          rs_var = p.p_var;
          rs_accept_us = p.p_accept_us;
          rs_route_us = p.p_route_us;
          rs_forward_us = p.p_forward_us;
          rs_reply_us = reply_us;
          rs_respond_us = now_us ();
        }
  | _ -> ()

(* Probe and gather replies are parsed: the router reads their bodies.
   So are lines whose id prefix does not scan. *)
let handle_parsed t b line =
  match Proto.response_of_string line with
  | Error e -> log "replica %d sent an unparseable reply (%s)" b.b_idx e
  | Ok resp -> (
      match Proto.response_id resp with
      | None -> log "replica %d sent a reply without an id" b.b_idx
      | Some rid -> (
          let find tbl = Hashtbl.find_opt tbl rid in
          match (find t.probes, find t.aggs) with
          | Some (idx, sent), _ ->
              Hashtbl.remove t.probes rid;
              Parcfl_stats.Histogram.observe t.poll_hist
                (int_of_float ((Unix.gettimeofday () -. sent) *. 1e6));
              let healthy =
                match resp with
                | Proto.Health_reply { healthy; _ } -> healthy
                | _ -> false
              in
              observe_poll t idx ~healthy
          | None, Some (_, agg) ->
              Hashtbl.remove t.aggs rid;
              agg.g_replies <- (b.b_idx, resp) :: agg.g_replies;
              agg.g_waiting <- agg.g_waiting - 1;
              finish_agg t agg
          | None, None ->
              (* A replay already answered this request from another
                 replica; the original replica's late reply is dropped,
                 never double-delivered. *)
              ()))

let handle_backend_line t b line =
  match Proto.reply_id line with
  | Some rid when Hashtbl.mem t.inflight rid ->
      forward_reply t rid (Hashtbl.find t.inflight rid) line
  | _ -> handle_parsed t b line

let read_backend t b c =
  Transport.read c ~on_line:(handle_backend_line t b) ~on_overflow:(fun () ->
      backend_died t b "reply line too long");
  backend_check t b c

(* ------------------------- client handling ------------------------- *)

(* Every metrics and stats line of one read shares one scrape of each
   replica: a pipelined burst of them costs a replica one exposition per
   read, not one per line (an exposition is tens of KB, and a replica
   drops a peer whose queued replies pass the output cap). *)
let read_client t client =
  let scrapes = ref [] in
  Transport.read_requests client.conn (function
    | (Proto.Metrics _ | Proto.Stats _) as req -> scrapes := req :: !scrapes
    | req -> route t client req);
  scatter t client (List.rev !scrapes)

(* ----------------------------- serving ----------------------------- *)

(* After [quit], the replies still owed to clients get this long, in
   total, to arrive from the replicas; the quit broadcast and the queued
   replies then get as long again to flush. *)
let shutdown_grace = 5.0

let quiesced t = Hashtbl.length t.inflight = 0 && Hashtbl.length t.aggs = 0

let serve ?(poll_interval = 0.5) ?on_span ~socket_path ~shard_map ~resolve
    replicas =
  let n = Array.length replicas in
  if n = 0 then invalid_arg "Router.create: no replicas";
  if Shard_map.n_shards shard_map <> n then
    invalid_arg "Router.create: shard map size disagrees with replica count";
  let t =
    {
      poll_interval;
      shard_map;
      resolve;
      failover = Failover.create ~n ~k_readmit;
      backends =
        Array.mapi
          (fun i r -> { b_idx = i; b_replica = r; b_conn = None })
          replicas;
      clients = [];
      inflight = Hashtbl.create 64;
      probes = Hashtbl.create 8;
      aggs = Hashtbl.create 8;
      next_rid = 0;
      next_poll = 0.0;
      stopping = false;
      on_span;
      registry = Registry.create ();
      routed = Array.make n 0;
      poll_hist = Array.make 20 0;
      replays = 0;
      drains = 0;
      readmits = 0;
    }
  in
  Registry.register t.registry (fun () -> router_families t);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Transport.listen socket_path in
  (* Set at [quit]: the last moment to wait for owed replies. *)
  let stop_by = ref infinity in
  log "serving %s over %d replicas" socket_path (Array.length t.backends);
  while
    not (t.stopping && (quiesced t || Unix.gettimeofday () >= !stop_by))
  do
    (* Shutdown: no new clients and no new requests; replicas are still
       read, so what was forwarded before [quit] is answered. *)
    if t.stopping && !stop_by = infinity then
      stop_by := Unix.gettimeofday () +. shutdown_grace;
    let live, dead =
      List.partition (fun c -> Transport.alive c.conn) t.clients
    in
    List.iter (fun c -> Transport.close c.conn) dead;
    t.clients <- live;
    let now = Unix.gettimeofday () in
    expire_probes t ~now;
    if now >= t.next_poll then begin
      poll_health t ~now;
      t.next_poll <- now +. t.poll_interval
    end;
    let backends =
      Array.to_list t.backends
      |> List.filter_map (fun b -> Option.map (fun c -> (c, b)) b.b_conn)
    in
    let clients = List.map (fun c -> c.conn) t.clients in
    let pending, ready =
      Transport.wait
        ~listeners:(if t.stopping then [] else [ listen_fd ])
        ~read:
          (List.map fst backends
          @ List.filter_map
              (fun c ->
                if c.outstanding < max_outstanding && not t.stopping then
                  Some c.conn
                else None)
              t.clients)
        ~write:(List.map fst backends @ clients)
        (Float.max 0.01
           (Float.min
              (Float.min (Float.min t.next_poll (next_expiry t)) !stop_by
              -. now)
              1.0))
    in
    (* A flush may have found a replica gone. *)
    List.iter (fun (c, b) -> backend_check t b c) backends;
    List.iter
      (fun fd ->
        Option.iter
          (fun conn -> t.clients <- { conn; outstanding = 0 } :: t.clients)
          (Transport.accept ~max_line:Proto.max_request_line fd))
      pending;
    List.iter
      (fun c ->
        match List.find_opt (fun (c', _) -> c' == c) backends with
        | Some (_, b) -> read_backend t b c
        | None ->
            List.iter
              (fun cl -> if cl.conn == c then read_client t cl)
              t.clients)
      ready
  done;
  (* Every owed reply is in (or the grace ran out): tell every replica to
     drain and go, and give the quit broadcast and the clients' queued
     replies one shared grace period to flush. *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let backends =
    Array.to_list t.backends |> List.filter_map (fun b -> b.b_conn)
  in
  List.iter (fun c -> Transport.send c "quit\n") backends;
  let clients = List.map (fun c -> c.conn) t.clients in
  Transport.flush_all ~grace:shutdown_grace (backends @ clients);
  Array.iter disconnect_backend t.backends;
  List.iter Transport.close clients

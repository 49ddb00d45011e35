module Proto = Parcfl_svc.Protocol
module Span = Parcfl_svc.Span
module Tracer = Parcfl_obs.Tracer
module Registry = Parcfl_telemetry.Registry
module Expo = Parcfl_telemetry.Expo

(* Backend reply lines may be far longer than requests (a federated
   exposition, a snapshot body); client lines use the protocol's request
   limit, the same one every replica enforces. *)
let max_reply_line = 1 lsl 20

type config = {
  poll_interval : float;  (* seconds between health-poll rounds *)
  health_timeout : float;  (* unanswered probe age that counts as failed *)
  k_readmit : int;  (* consecutive healthy polls before re-admission *)
  admin_replica : int option;
      (* send metrics/stats/slowlog to this one replica instead of
         federating over all live ones — the single-replica escape hatch *)
  rebalance_interval : float;
      (* seconds between live-profile seed re-scans; 0 disables *)
  rebalance_candidates : int;  (* seeds scanned per re-scan *)
  rebalance_decay : float;
      (* per-interval multiplier on the observed load profile: an EWMA
         over intervals, so placement tracks the recent workload *)
}

let default_config =
  {
    poll_interval = 0.5;
    health_timeout = 5.0;
    k_readmit = 3;
    admin_replica = None;
    rebalance_interval = 0.0;
    rebalance_candidates = 16;
    rebalance_decay = 0.5;
  }

type client = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  mutable c_alive : bool;
}

type backend = {
  b_idx : int;
  b_replica : Replica.t;
  mutable b_fd : Unix.file_descr option;
  b_buf : Buffer.t;
}

type pending = {
  p_client : client;
  p_orig_id : int;
  p_request : Proto.request;  (* original ids — what a replay re-sends *)
  p_backend : int;  (* a replay builds a fresh pending, never mutates *)
  p_var : int;  (* resolved query variable (load attribution), or -1 *)
  (* Router-side span stamps in epoch microseconds; 0 when tracing is
     off (the stamps cost clock reads, so they are taken only when a
     span sink is installed). *)
  p_accept_us : float;
  p_route_us : float;
  p_forward_us : float;
}

(* One federated admin request: scattered to every live replica, the
   replies gathered here and merged once the last one lands (or its
   replica dies — a dead replica only shrinks the merge, never wedges
   it). *)
type agg_verb =
  | Agg_metrics
  | Agg_stats
  | Agg_slowlog of int option
  | Agg_health

type agg = {
  g_client : client;
  g_orig_id : int;
  g_verb : agg_verb;
  mutable g_waiting : int;
  mutable g_replies : (int * Proto.response) list;  (* replica, reply *)
  mutable g_done : bool;
}

type t = {
  config : config;
  mutable shard_map : Shard_map.t;  (* swapped by a live rebalance *)
  resolve : string -> (int, string) result;
  failover : Failover.t;
  backends : backend array;
  mutable clients : client list;
  mutable listen_fd : Unix.file_descr option;
  inflight : (int, pending) Hashtbl.t;  (* router id → waiting client *)
  probes : (int, int * float) Hashtbl.t;  (* router id → (backend, sent) *)
  aggs : (int, int * agg) Hashtbl.t;  (* router id → (backend, gather) *)
  mutable next_rid : int;
  mutable next_poll : float;
  mutable next_rebalance : float;
  mutable stopping : bool;
  on_span : (Tracer.router_span -> unit) option;
  (* Router-side telemetry, federated ahead of the replicas' families. *)
  registry : Registry.t;
  routed : int array;  (* forwards per shard *)
  poll_hist : int array;  (* health-probe round trips, log2 us *)
  mutable replays : int;
  mutable drains : int;
  mutable readmits : int;
  mutable rebalances : int;
  mutable migrated : int;
  mutable busiest_before : float;  (* last rebalance, observed profile *)
  mutable busiest_after : float;
  profile : float array;  (* per-variable decayed solve_us EWMA *)
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
  | Proto.Snapshot _ -> Proto.Snapshot id
  | Proto.Ping _ -> Proto.Ping id
  | Proto.Quit -> Proto.Quit

let response_with_id resp id =
  match resp with
  | Proto.Answer a -> Proto.Answer { a with id }
  | Proto.Timeout x -> Proto.Timeout { x with id }
  | Proto.Rejected r -> Proto.Rejected { r with id }
  | Proto.Error e -> Proto.Error { e with id = Some id }
  | Proto.Pong _ -> Proto.Pong id
  | Proto.Stats_reply s -> Proto.Stats_reply { s with id }
  | Proto.Metrics_reply m -> Proto.Metrics_reply { m with id }
  | Proto.Slowlog_reply s -> Proto.Slowlog_reply { s with id }
  | Proto.Explain_reply e -> Proto.Explain_reply { e with id }
  | Proto.Health_reply h -> Proto.Health_reply { h with id }
  | Proto.Drained d -> Proto.Drained { d with id }
  | Proto.Snapshot_reply s -> Proto.Snapshot_reply { s with id }

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

(* --------------------------- telemetry ----------------------------- *)

let observe_log2 hist v =
  let v = if v < 1 then 1 else v in
  let b = int_of_float (Float.log2 (float_of_int v)) in
  let b = if b >= Array.length hist then Array.length hist - 1 else b in
  hist.(b) <- hist.(b) + 1

let router_families t =
  let fi = float_of_int in
  let inflight_per = Array.make (Array.length t.backends) 0 in
  Hashtbl.iter
    (fun _ p ->
      if p.p_backend >= 0 && p.p_backend < Array.length inflight_per then
        inflight_per.(p.p_backend) <- inflight_per.(p.p_backend) + 1)
    t.inflight;
  [
    Expo.Counter
      {
        name = "parcfl_router_routed_total";
        help = "Requests forwarded per shard.";
        samples =
          Array.to_list
            (Array.mapi
               (fun i c ->
                 {
                   Expo.labels = [ ("shard", string_of_int i) ];
                   value = fi c;
                 })
               t.routed);
      };
    Expo.counter ~name:"parcfl_router_replays_total"
      ~help:"Requests replayed onto a survivor after their replica died."
      (fi t.replays);
    Expo.counter ~name:"parcfl_router_drains_total"
      ~help:"Replicas drained (failed polls or dead connections)."
      (fi t.drains);
    Expo.counter ~name:"parcfl_router_readmits_total"
      ~help:"Drained replicas re-admitted after consecutive healthy polls."
      (fi t.readmits);
    Expo.counter ~name:"parcfl_router_rebalances_total"
      ~help:"Live-profile seed re-scans that migrated components."
      (fi t.rebalances);
    Expo.counter ~name:"parcfl_router_migrated_components_total"
      ~help:"Rendezvous keys whose owner changed across rebalances."
      (fi t.migrated);
    Expo.gauge ~name:"parcfl_router_live_replicas"
      ~help:"Replicas currently admitted by failover."
      (fi (Failover.n_live t.failover));
    Expo.Gauge
      {
        name = "parcfl_router_inflight";
        help = "Forwarded requests awaiting a reply, per replica.";
        samples =
          Array.to_list
            (Array.mapi
               (fun i c ->
                 {
                   Expo.labels = [ ("replica", string_of_int i) ];
                   value = fi c;
                 })
               inflight_per);
      };
    Expo.Gauge
      {
        name = "parcfl_router_rebalance_busiest_share";
        help =
          "Busiest shard's share of the observed load at the last \
           migrating rebalance.";
        samples =
          [
            {
              Expo.labels = [ ("when", "before") ];
              value = t.busiest_before;
            };
            { Expo.labels = [ ("when", "after") ]; value = t.busiest_after };
          ];
      };
    Expo.histogram_of_log2 ~name:"parcfl_router_poll_latency_us"
      ~help:"Health-probe round trips, microseconds." t.poll_hist;
  ]

(* --------------------------- raw writes ---------------------------- *)

let write_fd fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> (
          (* Non-blocking client fd with a full buffer: wait for it to
             drain; a peer wedged past the grace period counts as dead
             (the EPIPE is caught by this function's callers). *)
          match Unix.select [] [ fd ] [] 30.0 with
          | _, [], _ -> raise (Unix.Unix_error (EPIPE, "write", ""))
          | _ -> go off
          | exception Unix.Unix_error (EINTR, _, _) -> go off)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let client_send client resp =
  if client.c_alive then
    match write_fd client.c_fd (Proto.response_to_string resp ^ "\n") with
    | () -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        client.c_alive <- false

let disconnect_backend b =
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    b.b_fd;
  b.b_fd <- None;
  Buffer.clear b.b_buf

let ensure_connected b =
  match b.b_fd with
  | Some fd -> Ok fd
  | None -> (
      match Replica.try_connect b.b_replica with
      | Ok fd ->
          b.b_fd <- Some fd;
          Ok fd
      | Error _ as e -> e)

(* ------------------------ gather completion ------------------------ *)

let drained_reasons t =
  let reasons = ref [] in
  for i = Array.length t.backends - 1 downto 0 do
    if not (Failover.is_live t.failover i) then
      reasons :=
        Printf.sprintf "replica %d (%s) drained" i
          (Replica.socket t.backends.(i).b_replica)
        :: !reasons
  done;
  !reasons

let finish_agg t agg =
  if (not agg.g_done) && agg.g_waiting <= 0 then begin
    agg.g_done <- true;
    let replies = List.rev agg.g_replies in
    let err reason = Proto.Error { id = Some agg.g_orig_id; reason } in
    let resp =
      match agg.g_verb with
      | Agg_metrics -> (
          let bodies =
            List.filter_map
              (function
                | i, Proto.Metrics_reply { body; _ } -> Some (i, body)
                | _ -> None)
              replies
          in
          if bodies = [] then err "no live replica answered"
          else
            match
              Federation.merge_metrics
                ~extra:(Registry.collect t.registry)
                bodies
            with
            | Ok body -> Proto.Metrics_reply { id = agg.g_orig_id; body }
            | Error reason -> err reason)
      | Agg_stats ->
          let stats =
            List.filter_map
              (function
                | i, Proto.Stats_reply { stats; _ } -> Some (i, stats)
                | _ -> None)
              replies
          in
          if stats = [] then err "no live replica answered"
          else
            Proto.Stats_reply
              { id = agg.g_orig_id; stats = Federation.merge_stats stats }
      | Agg_slowlog limit ->
          let logs =
            List.filter_map
              (function
                | i, Proto.Slowlog_reply { entries; _ } -> Some (i, entries)
                | _ -> None)
              replies
          in
          if logs = [] then err "no live replica answered"
          else
            Proto.Slowlog_reply
              {
                id = agg.g_orig_id;
                entries = Federation.merge_slowlogs ?limit logs;
              }
      | Agg_health -> (
          let verdicts =
            List.filter_map
              (function
                | i, Proto.Health_reply { healthy; reasons; _ } ->
                    Some (i, healthy, reasons)
                | _ -> None)
              replies
          in
          match verdicts with
          | [] -> err "no live replica answered"
          | verdicts ->
              let healthy, reasons =
                Federation.merge_health ~drained:(drained_reasons t) verdicts
              in
              Proto.Health_reply { id = agg.g_orig_id; healthy; reasons })
    in
    client_send agg.g_client resp
  end

(* --------------------- routing and failover ------------------------ *)

let first_live t =
  let n = Array.length t.backends in
  let rec go i =
    if i >= n then None
    else if Failover.is_live t.failover i then Some i
    else go (i + 1)
  in
  go 0

let live_indices t =
  let acc = ref [] in
  for i = Array.length t.backends - 1 downto 0 do
    if Failover.is_live t.failover i then acc := i :: !acc
  done;
  !acc

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
  | Ok fd -> (
      match write_fd fd line with
      | () -> true
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          backend_died t b "connection lost";
          false)

and backend_died t b reason =
  disconnect_backend b;
  (match Failover.force_drain t.failover b.b_idx with
  | Failover.Drained_now ->
      t.drains <- t.drains + 1;
      log "replica %d drained (%s); re-routing its shards" b.b_idx reason
  | _ -> ());
  (* Probes to the dead replica can never answer: count each as a failed
     poll so a drained replica's healthy streak resets. *)
  let dead_probes =
    Hashtbl.fold
      (fun rid (bi, _) acc -> if bi = b.b_idx then rid :: acc else acc)
      t.probes []
  in
  List.iter (Hashtbl.remove t.probes) dead_probes;
  (* A gather never waits on the dead: its reply just isn't part of the
     merge (broadcast verbs are not replayed — the surviving replicas'
     replies still describe every live shard). *)
  let dead_gathers =
    Hashtbl.fold
      (fun rid (bi, agg) acc ->
        if bi = b.b_idx then (rid, agg) :: acc else acc)
      t.aggs []
  in
  List.iter
    (fun (rid, agg) ->
      Hashtbl.remove t.aggs rid;
      agg.g_waiting <- agg.g_waiting - 1)
    dead_gathers;
  List.iter (fun (_, agg) -> finish_agg t agg) dead_gathers;
  (* Replay every request that was waiting on it — the cluster loses no
     answers when a replica dies, it only moves them. *)
  let orphans =
    Hashtbl.fold
      (fun rid p acc -> if p.p_backend = b.b_idx then (rid, p) :: acc else acc)
      t.inflight []
  in
  List.iter (fun (rid, _) -> Hashtbl.remove t.inflight rid) orphans;
  List.iter
    (fun (_, p) ->
      if p.p_client.c_alive then begin
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
  | (Proto.Metrics _ | Proto.Stats _ | Proto.Slowlog _ | Proto.Health _)
    when t.config.admin_replica = None ->
      scatter t client req
  | _ -> (
      (* drain/snapshot, or admin verbs pinned to one replica. *)
      let target =
        match t.config.admin_replica with
        | Some i ->
            if Failover.is_live t.failover i then Ok i
            else Error (Printf.sprintf "replica %d is drained" i)
        | None -> (
            match first_live t with
            | Some i -> Ok i
            | None -> Error "no live replica")
      in
      match target with
      | Error reason ->
          client_send client
            (Proto.Error { id = Proto.request_id req; reason })
      | Ok idx ->
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
        if not (backend_send t t.backends.(idx) line) then
          (* backend_died already replayed the inflight table — including
             this request, which it re-routed or error-answered. *)
          ()
      end

and scatter t client req =
  match Proto.request_id req with
  | None -> ()
  | Some orig_id -> (
      match live_indices t with
      | [] ->
          client_send client
            (Proto.Error { id = Some orig_id; reason = "no live replica" })
      | targets ->
          let verb =
            match req with
            | Proto.Metrics _ -> Agg_metrics
            | Proto.Stats _ -> Agg_stats
            | Proto.Slowlog { limit; _ } -> Agg_slowlog limit
            | Proto.Health _ -> Agg_health
            | _ -> assert false
          in
          let agg =
            {
              g_client = client;
              g_orig_id = orig_id;
              g_verb = verb;
              g_waiting = 0;
              g_replies = [];
              g_done = false;
            }
          in
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
                let line =
                  Proto.request_to_string (request_with_id req rid) ^ "\n"
                in
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

let poll_health t ~now =
  (* Expire probes first: an unanswered probe is a failed poll. *)
  let expired =
    Hashtbl.fold
      (fun rid (idx, sent) acc ->
        if now -. sent > t.config.health_timeout then (rid, idx) :: acc
        else acc)
      t.probes []
  in
  List.iter
    (fun (rid, idx) ->
      Hashtbl.remove t.probes rid;
      observe_poll t idx ~healthy:false;
      (* The connection is wedged, not just slow to answer one verb:
         treat it as dead so inflight work replays and gathers waiting
         on it complete, and the next probe gets a fresh connection. *)
      backend_died t t.backends.(idx) "health probe timed out")
    expired;
  (* Probe everyone — drained replicas too, that's how they come back. *)
  Array.iter
    (fun b ->
      let rid = fresh_rid t in
      let line = Proto.request_to_string (Proto.Health rid) ^ "\n" in
      match ensure_connected b with
      | Error _ -> observe_poll t b.b_idx ~healthy:false
      | Ok fd -> (
          match write_fd fd line with
          | () -> Hashtbl.replace t.probes rid (b.b_idx, now)
          | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
            ->
              (* A dying replica is handled like any other send failure
                 so inflight work is replayed, but the poll verdict is
                 recorded too. *)
              backend_died t b "connection lost during health poll"))
    t.backends

(* ------------------------ live rebalancing ------------------------- *)

(* Fold the observed profile into a placement decision: re-run the seed
   scan against what queries actually cost (each answer's solve_us,
   decayed per interval), adopt the better seed, and migrate only the
   components whose rendezvous owner changed — the map diff is exact, so
   a rebalance that cannot improve placement moves nothing. *)
let rebalance_now t =
  let load = Array.map int_of_float t.profile in
  let total = Array.fold_left ( + ) 0 load in
  if total > 0 then begin
    let before = Shard_map.busiest_share t.shard_map ~load in
    let next =
      Shard_map.rebalance ~candidates:t.config.rebalance_candidates
        t.shard_map ~load
    in
    let moved = Shard_map.diff_owners t.shard_map next in
    if moved <> [] then begin
      let after = Shard_map.busiest_share next ~load in
      log
        "rebalance: seed %d -> %d, %d/%d component(s) migrate, busiest \
         share %.3f -> %.3f"
        (Shard_map.seed t.shard_map)
        (Shard_map.seed next) (List.length moved)
        (Shard_map.n_keys t.shard_map)
        before after;
      t.shard_map <- next;
      t.rebalances <- t.rebalances + 1;
      t.migrated <- t.migrated + List.length moved;
      t.busiest_before <- before;
      t.busiest_after <- after
    end
  end;
  Array.iteri
    (fun i x -> t.profile.(i) <- x *. t.config.rebalance_decay)
    t.profile

(* ---------------------- backend reply handling --------------------- *)

let handle_backend_line t b line =
  match Proto.response_of_string line with
  | Error e -> log "replica %d sent an unparseable reply (%s)" b.b_idx e
  | Ok resp -> (
      match Proto.response_id resp with
      | None -> log "replica %d sent a reply without an id" b.b_idx
      | Some rid -> (
          match Hashtbl.find_opt t.probes rid with
          | Some (idx, sent) ->
              Hashtbl.remove t.probes rid;
              observe_log2 t.poll_hist
                (int_of_float ((Unix.gettimeofday () -. sent) *. 1e6));
              let healthy =
                match resp with
                | Proto.Health_reply { healthy; _ } -> healthy
                | _ -> false
              in
              observe_poll t idx ~healthy
          | None -> (
              match Hashtbl.find_opt t.aggs rid with
              | Some (_, agg) ->
                  Hashtbl.remove t.aggs rid;
                  agg.g_replies <- (b.b_idx, resp) :: agg.g_replies;
                  agg.g_waiting <- agg.g_waiting - 1;
                  finish_agg t agg
              | None -> (
                  match Hashtbl.find_opt t.inflight rid with
                  | Some p ->
                      Hashtbl.remove t.inflight rid;
                      (* Every answer's solve time feeds the per-variable
                         load profile the rebalancer re-scans against. *)
                      (match resp with
                      | Proto.Answer { breakdown; _ }
                      | Proto.Timeout { breakdown; _ } ->
                          if
                            p.p_var >= 0
                            && p.p_var < Array.length t.profile
                          then
                            t.profile.(p.p_var) <-
                              t.profile.(p.p_var)
                              +. breakdown.Span.bd_solve_us
                      | _ -> ());
                      let reply_us =
                        if t.on_span = None then 0.0 else now_us ()
                      in
                      client_send p.p_client
                        (response_with_id resp p.p_orig_id);
                      (match (t.on_span, p.p_request) with
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
                      | _ -> ())
                  | None ->
                      (* A replay already answered this request from
                         another replica; the original replica's late
                         reply is dropped, never double-delivered. *)
                      ()))))

let feed_lines ~max_line buf chunk ~on_line ~on_overflow =
  Buffer.add_string buf chunk;
  let data = Buffer.contents buf in
  Buffer.clear buf;
  let parts = String.split_on_char '\n' data in
  let rec go = function
    | [] -> ()
    | line :: _ when String.length line > max_line -> on_overflow ()
    | [ last ] -> Buffer.add_string buf last
    | line :: rest ->
        let line =
          let n = String.length line in
          if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
          else line
        in
        on_line line;
        go rest
  in
  go parts

let read_backend t b fd =
  let bytes = Bytes.create 4096 in
  match Unix.read fd bytes 0 4096 with
  | 0 -> backend_died t b "closed its connection"
  | n ->
      feed_lines ~max_line:max_reply_line b.b_buf
        (Bytes.sub_string bytes 0 n)
        ~on_line:(fun line -> handle_backend_line t b line)
        ~on_overflow:(fun () -> backend_died t b "reply line too long")
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
      backend_died t b "connection reset"
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* ------------------------- client handling ------------------------- *)

let handle_client_line t client line =
  if String.trim line <> "" then
    match Proto.parse_request line with
    | Ok req -> route t client req
    | Error reason ->
        client_send client (Proto.Error { id = None; reason })

let read_client t client =
  let bytes = Bytes.create 4096 in
  match Unix.read client.c_fd bytes 0 4096 with
  | 0 -> client.c_alive <- false
  | n ->
      feed_lines ~max_line:Proto.max_request_line client.c_buf
        (Bytes.sub_string bytes 0 n)
        ~on_line:(fun line -> handle_client_line t client line)
        ~on_overflow:(fun () ->
          client_send client
            (Proto.Error { id = None; reason = "request line too long" });
          client.c_alive <- false)
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
      client.c_alive <- false
  | exception Unix.Unix_error (EINTR, _, _) -> ()

let accept_client t listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      t.clients <-
        { c_fd = fd; c_buf = Buffer.create 256; c_alive = true } :: t.clients
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* ----------------------------- serving ----------------------------- *)

let create ?(config = default_config) ?on_span ~shard_map ~resolve replicas
    =
  let n = Array.length replicas in
  if n = 0 then invalid_arg "Router.create: no replicas";
  if Shard_map.n_shards shard_map <> n then
    invalid_arg "Router.create: shard map size disagrees with replica count";
  (match config.admin_replica with
  | Some i when i < 0 || i >= n ->
      invalid_arg "Router.create: admin replica out of range"
  | _ -> ());
  let t =
    {
      config;
      shard_map;
      resolve;
      failover = Failover.create ~n ~k_readmit:config.k_readmit;
      backends =
        Array.mapi
          (fun i r ->
            { b_idx = i; b_replica = r; b_fd = None; b_buf = Buffer.create 256 })
          replicas;
      clients = [];
      listen_fd = None;
      inflight = Hashtbl.create 64;
      probes = Hashtbl.create 8;
      aggs = Hashtbl.create 8;
      next_rid = 0;
      next_poll = 0.0;
      next_rebalance = 0.0;
      stopping = false;
      on_span;
      registry = Registry.create ();
      routed = Array.make n 0;
      poll_hist = Array.make 20 0;
      replays = 0;
      drains = 0;
      readmits = 0;
      rebalances = 0;
      migrated = 0;
      busiest_before = Float.nan;
      busiest_after = Float.nan;
      profile = Array.make (Shard_map.n_vars shard_map) 0.0;
    }
  in
  Registry.register t.registry (fun () -> router_families t);
  t

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let broadcast_quit t =
  Array.iter
    (fun b ->
      match b.b_fd with
      | None -> ()
      | Some fd -> (
          match write_fd fd "quit\n" with
          | () -> ()
          | exception Unix.Unix_error _ -> ()))
    t.backends

let serve ?config ?on_span ~socket_path ~shard_map ~resolve replicas =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t = create ?config ?on_span ~shard_map ~resolve replicas in
  t.listen_fd <- Some (listen_unix socket_path);
  t.next_rebalance <- Unix.gettimeofday () +. t.config.rebalance_interval;
  log "serving %s over %d replicas" socket_path (Array.length t.backends);
  while not t.stopping do
    let live, dead = List.partition (fun c -> c.c_alive) t.clients in
    List.iter
      (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
      dead;
    t.clients <- live;
    let now = Unix.gettimeofday () in
    if now >= t.next_poll then begin
      poll_health t ~now;
      t.next_poll <- now +. t.config.poll_interval
    end;
    if t.config.rebalance_interval > 0.0 && now >= t.next_rebalance then begin
      rebalance_now t;
      t.next_rebalance <- now +. t.config.rebalance_interval
    end;
    let backend_fds =
      Array.to_list t.backends
      |> List.filter_map (fun b -> Option.map (fun fd -> (fd, b)) b.b_fd)
    in
    let read_fds =
      (match t.listen_fd with Some fd -> [ fd ] | None -> [])
      @ List.map fst backend_fds
      @ List.map (fun c -> c.c_fd) t.clients
    in
    let timeout = Float.max 0.01 (Float.min (t.next_poll -. now) 1.0) in
    match Unix.select read_fds [] [] timeout with
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if Some fd = t.listen_fd then accept_client t fd
            else
              match List.assoc_opt fd backend_fds with
              | Some b -> read_backend t b fd
              | None -> (
                  match
                    List.find_opt (fun c -> c.c_fd = fd) t.clients
                  with
                  | Some c when c.c_alive -> read_client t c
                  | _ -> ()))
          ready
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  (* Shutdown: no new clients, tell every replica to drain and go. *)
  Option.iter
    (fun fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
    t.listen_fd;
  broadcast_quit t;
  Array.iter disconnect_backend t.backends;
  List.iter
    (fun c ->
      if c.c_alive then
        try Unix.close c.c_fd with Unix.Unix_error _ -> ())
    t.clients

module Expo = Parcfl_telemetry.Expo

(* Replies still queued at shutdown get this long, in total, to flush. *)
let shutdown_grace = 5.0

type t = {
  service : Service.t;
  mutable conns : Transport.conn list;  (* clients and scrapes alike *)
  stdio : Transport.conn option;
  mutable stopping : bool;
}

let read t conn =
  Transport.read_requests conn (function
    | Protocol.Quit -> t.stopping <- true
    | req ->
        Service.submit_line t.service ~now:(Unix.gettimeofday ())
          ~send:(Transport.send conn) req);
  (* stdio EOF means "no more input ever": drain and stop. A socket
     client that goes away is just reaped. *)
  let is_stdio = match t.stdio with Some s -> s == conn | None -> false in
  if is_stdio && not (Transport.readable conn) then t.stopping <- true

(* The scrape listener is HTTP-free: accept, write the full exposition,
   close once it has flushed. One snapshot per connection — the
   `nc`-able analogue of GET /metrics. *)
let accept_scrape t listen_fd =
  match Transport.accept ~max_line:0 listen_fd with
  | Some conn ->
      Transport.send conn (Service.metrics_text t.service);
      Transport.close_when_flushed conn;
      t.conns <- conn :: t.conns
  | None -> ()

let serve ?stdio ?socket_path ?metrics_socket_path service =
  let stdio = Option.value stdio ~default:(socket_path = None) in
  if (not stdio) && socket_path = None then
    invalid_arg "Svc.Server.serve: no transport enabled";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let max_line = Protocol.max_request_line in
  let stdio_conn =
    if not stdio then None
    else
      Some
        (Transport.create ~out_fd:Unix.stdout ~owned:false ~max_line Unix.stdin)
  in
  let t =
    { service; conns = Option.to_list stdio_conn; stdio = stdio_conn;
      stopping = false }
  in
  let listen_fd = Option.map Transport.listen socket_path in
  let metrics_fd = Option.map Transport.listen metrics_socket_path in
  let listeners = Option.to_list listen_fd @ Option.to_list metrics_fd in
  Parcfl_telemetry.Registry.register (Service.registry service) (fun () ->
      [
        Expo.counter ~name:"parcfl_svc_slow_peers_dropped_total"
          ~help:
            "Connections dropped for letting their queued replies outgrow \
             the output cap."
          (float_of_int (Transport.dropped ()));
      ]);
  while not t.stopping do
    let live, dead = List.partition Transport.alive t.conns in
    List.iter Transport.close dead;
    t.conns <- live;
    if listen_fd = None && t.conns = [] && Service.queue_depth t.service = 0
    then
      (* No clients left and nothing queued: pure stdio stopped at EOF
         already; a socket server keeps waiting for the next client. *)
      t.stopping <- true
    else begin
      (* Never sleep on queued work: a queue left over by a capped batch
         is served as soon as this turn's input is in. *)
      let timeout = if Service.queue_depth t.service > 0 then 0.0 else 1.0 in
      let pending, ready =
        Transport.wait ~listeners ~read:t.conns ~write:t.conns timeout
      in
      List.iter
        (fun fd ->
          if Some fd = metrics_fd then accept_scrape t fd
          else
            Option.iter
              (fun c -> t.conns <- c :: t.conns)
              (Transport.accept ~max_line fd))
        pending;
      List.iter (read t) ready;
      (* Every ready connection has been read: batch what is queued now. *)
      ignore (Service.pump t.service ~now:(Unix.gettimeofday ()))
    end
  done;
  (* Graceful shutdown: stop intake, finish what was admitted, flush the
     replies, then close. *)
  List.iter
    (fun (fd, path) ->
      Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fd;
      Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
        path)
    [ (listen_fd, socket_path); (metrics_fd, metrics_socket_path) ];
  Service.drain t.service ~now:(Unix.gettimeofday ());
  Transport.flush_all ~grace:shutdown_grace t.conns;
  List.iter Transport.close t.conns;
  Service.shutdown t.service

type conn = {
  fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  buf : Buffer.t;  (* partial line *)
  mutable alive : bool;
  is_stdio : bool;
}

let write_all conn s =
  if conn.alive then
    let bytes = Bytes.of_string s in
    let n = Bytes.length bytes in
    let rec go off =
      if off < n then
        match Unix.write conn.out_fd bytes off (n - off) with
        | written -> go (off + written)
        | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
            conn.alive <- false
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> (
            (* The fd is non-blocking and a pipelining peer (a cluster
               router replaying a burst) outran its read side: wait for
               the buffer to drain instead of crashing or truncating a
               response mid-line. A peer that stays wedged is dropped. *)
            match Unix.select [] [ conn.out_fd ] [] 30.0 with
            | _, [], _ -> conn.alive <- false
            | _ -> go off
            | exception Unix.Unix_error (EINTR, _, _) -> go off)
        | exception Unix.Unix_error (EINTR, _, _) -> go off
    in
    go 0

let respond_to conn response =
  write_all conn (Protocol.response_to_string response ^ "\n")

type t = {
  service : Service.t;
  mutable conns : conn list;
  mutable listen_fd : Unix.file_descr option;
  mutable metrics_fd : Unix.file_descr option;
  mutable stopping : bool;
}

let handle_line t conn line =
  let line =
    (* Tolerate CRLF clients. *)
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if String.trim line <> "" then
    match Protocol.parse_request line with
    | Ok Protocol.Quit -> t.stopping <- true
    | Ok req ->
        Service.submit t.service ~now:(Unix.gettimeofday ())
          ~respond:(respond_to conn) req
    | Error reason ->
        respond_to conn (Protocol.Error { id = None; reason })

(* A line over the limit — complete or still partial — gets one error and
   ends the connection: the stream cannot be resynchronised mid-line. *)
let feed t conn chunk =
  Buffer.add_string conn.buf chunk;
  let data = Buffer.contents conn.buf in
  Buffer.clear conn.buf;
  let parts = String.split_on_char '\n' data in
  let rec go = function
    | [] -> ()
    | line :: _ when String.length line > Protocol.max_request_line ->
        respond_to conn
          (Protocol.Error { id = None; reason = "request line too long" });
        conn.alive <- false
    | [ last ] -> Buffer.add_string conn.buf last
    | line :: rest ->
        handle_line t conn line;
        go rest
  in
  go parts

let read_chunk t conn =
  let bytes = Bytes.create 4096 in
  match Unix.read conn.fd bytes 0 4096 with
  | 0 ->
      (* EOF: stdio EOF means "no more input ever" — drain and stop; a
         disconnected socket client just goes away. *)
      conn.alive <- false;
      if conn.is_stdio then t.stopping <- true
  | n -> feed t conn (Bytes.sub_string bytes 0 n)
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
      conn.alive <- false;
      if conn.is_stdio then t.stopping <- true
  | exception Unix.Unix_error (EINTR, _, _) -> ()

let accept_client t listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      t.conns <-
        {
          fd;
          out_fd = fd;
          buf = Buffer.create 256;
          alive = true;
          is_stdio = false;
        }
        :: t.conns
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let close_conn conn =
  if not conn.is_stdio then (try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* The scrape listener is HTTP-free: accept, write the full exposition,
   close. One snapshot per connection — the `nc`-able analogue of GET
   /metrics, and exactly what a Prometheus exporter sidecar needs. *)
let accept_scrape t listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
      let body = Service.metrics_text t.service in
      let conn =
        { fd; out_fd = fd; buf = Buffer.create 0; alive = true;
          is_stdio = false }
      in
      write_all conn body;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let serve ?stdio ?socket_path ?metrics_socket_path service =
  let stdio = Option.value stdio ~default:(socket_path = None) in
  if (not stdio) && socket_path = None then
    invalid_arg "Svc.Server.serve: no transport enabled";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    { service; conns = []; listen_fd = None; metrics_fd = None;
      stopping = false }
  in
  if stdio then
    t.conns <-
      [
        {
          fd = Unix.stdin;
          out_fd = Unix.stdout;
          buf = Buffer.create 256;
          alive = true;
          is_stdio = true;
        };
      ];
  Option.iter (fun path -> t.listen_fd <- Some (listen_unix path)) socket_path;
  Option.iter
    (fun path -> t.metrics_fd <- Some (listen_unix path))
    metrics_socket_path;
  while not t.stopping do
    let live, dead = List.partition (fun c -> c.alive) t.conns in
    List.iter close_conn dead;
    t.conns <- live;
    let now = Unix.gettimeofday () in
    if Service.due t.service ~now then ignore (Service.pump t.service ~now);
    let read_fds =
      (match t.listen_fd with Some fd -> [ fd ] | None -> [])
      @ (match t.metrics_fd with Some fd -> [ fd ] | None -> [])
      @ List.map (fun c -> c.fd) t.conns
    in
    if
      (match read_fds with
      | [] -> true
      | [ fd ] -> Some fd = t.metrics_fd
      | _ -> false)
      && Service.queue_depth t.service = 0
    then
      (* No clients left and nothing queued: a socket-only server keeps
         waiting for the next client; pure stdio would have stopped at
         EOF already. *)
      (if t.listen_fd = None then t.stopping <- true)
    else begin
      let timeout =
        match Service.wait_hint t.service ~now:(Unix.gettimeofday ()) with
        | Some s -> Float.max 0.0 (Float.min s 1.0)
        | None -> 1.0
      in
      match Unix.select read_fds [] [] timeout with
      | ready, _, _ ->
          List.iter
            (fun fd ->
              if Some fd = t.listen_fd then accept_client t fd
              else if Some fd = t.metrics_fd then accept_scrape t fd
              else
                match List.find_opt (fun c -> c.fd = fd) t.conns with
                | Some conn when conn.alive -> read_chunk t conn
                | _ -> ())
            ready
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  done;
  (* Graceful shutdown: stop intake, finish what was admitted, respond,
     then close. *)
  Option.iter
    (fun fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Option.iter
        (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
        socket_path)
    t.listen_fd;
  Option.iter
    (fun fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Option.iter
        (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
        metrics_socket_path)
    t.metrics_fd;
  Service.drain t.service ~now:(Unix.gettimeofday ());
  List.iter close_conn t.conns;
  Service.shutdown t.service

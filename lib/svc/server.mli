(** Front ends: the service behind a newline-delimited byte stream.

    One single-threaded event loop multiplexes every connected client with
    [select]; the parallelism lives inside the service's batch execution
    (the engine's domain pool). Each turn reads every ready connection,
    then calls {!Service.pump}, so a request is batched as soon as the
    input at hand is in — no timer holds it. Requests that arrive during
    a solve wait in their sockets and form the next, larger batch; while
    a capped batch left work queued, the next [select] does not block.
    A read never queues more than one batch: once [max_batch] requests
    wait, the loop solves them before it admits the next line, so a
    pipelined burst stays in its socket instead of overrunning the
    admission queue.

    Transports, usable together:
    - {b stdio}: requests on [stdin], responses on [stdout] — `parcfl
      serve` behind a pipe. EOF on stdin begins a graceful drain.
    - {b Unix domain socket}: a listening socket accepting any number of
      concurrent clients — `parcfl serve --socket /tmp/parcfl.sock`.
    - {b metrics socket} ([metrics_socket_path]): an HTTP-free scrape
      endpoint — every accepted connection is written one full Prometheus
      text exposition ({!Service.metrics_text}) and closed. Works with
      [nc -U] or any collector that can read a stream; it never parses
      input, so it is not a protocol transport.

    {b Slow peers.} Replies go out through {!Transport}: written at once,
    the rest queued; a client past {!Transport.output_cap} is dropped and
    counted in [parcfl_svc_slow_peers_dropped_total]. Only the stdio
    transport writes blocking: its reader owns the process.

    A [quit] request from any client (or stdin EOF) stops intake, drains
    the in-flight queue — every admitted request still gets its real
    response — flushes queued replies for at most 5 s in total, closes
    every connection and returns. *)

val serve :
  ?stdio:bool ->
  ?socket_path:string ->
  ?metrics_socket_path:string ->
  Service.t ->
  unit
(** [stdio] defaults to [true] when [socket_path] is [None], else [false].
    Socket paths are unlinked before bind and after shutdown. The metrics
    socket alone does not count as a transport.
    @raise Invalid_argument when both transports are disabled. *)

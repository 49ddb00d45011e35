(** The one newline-delimited transport behind {!Server} and the cluster
    router: a connection owns its fds, its partial line and an output
    queue, and nothing here ever waits on one peer.

    - {b Framing.} Lines end at ['\n']; a trailing ['\r'] is stripped. A
      line over [max_line] bytes — complete or still partial — is
      reported once; the rest of the stream is ignored.
    - {b Output.} {!send} writes at once and queues only what the kernel
      refuses; later sends line up behind it and drain in {!wait}.
    - {b Slow peers.} A send that would grow a non-empty queue past
      {!output_cap} drops the peer ({!dropped}). A send onto an empty
      queue is always accepted, so one reply larger than the cap still
      goes out whole. *)

val max_reply_line : int
(** 1 MiB: the longest reply line the router takes from a replica. *)

val output_cap : int
(** [4 * max_reply_line], a constant: a cap per connection, not an option. *)

type framer

val framer : max_line:int -> framer

val feed :
  framer -> Bytes.t -> int -> int ->
  on_line:(string -> unit) -> on_overflow:(unit -> unit) -> unit
(** [feed f b off len]: each line completed by these bytes goes to
    [on_line]; the unterminated rest waits for the next call. The first
    line over the limit (counting a trailing CR) calls [on_overflow] as
    soon as it is known to be too long; later bytes are ignored. *)

type conn

val create :
  ?out_fd:Unix.file_descr -> ?owned:bool -> max_line:int ->
  Unix.file_descr -> conn
(** Read [fd], write [out_fd] (default [fd]). A blocking [out_fd] makes
    every send complete in place. [owned] (default [true]): {!close}
    closes the fds — pass [false] for stdin/stdout. *)

val alive : conn -> bool
(** [false] once a write failed, the peer overran the cap, or a closing
    connection's queue was empty at a {!wait}. *)

val readable : conn -> bool
(** Alive and still taking input: not at end of stream or closing. *)

val dropped : unit -> int
(** Connections this process has dropped past the cap. *)

val wait :
  listeners:Unix.file_descr list -> read:conn list -> write:conn list ->
  float -> Unix.file_descr list * conn list
(** One event-loop turn: kill the closing [write] connections with an
    empty queue, [select] for up to [timeout] seconds on the listeners,
    the {!readable} [read] connections and the [write] connections with
    queued output; flush the writable ones, and return the listeners
    with a pending client and the connections with input. *)

val read :
  conn -> on_line:(string -> unit) -> on_overflow:(unit -> unit) -> unit
(** One [read(2)] of up to 64 KiB, framed by {!feed}; a no-op unless
    {!readable}. End of stream closes the input side only — replies can
    still be sent, as by {!close_when_flushed}; a read error kills the
    connection. No [on_line] runs after it dies. *)

val send : conn -> string -> unit
(** Write now, queue the rest, or drop the peer past the cap. No-op on a
    dead connection. *)

val reply : conn -> Protocol.response -> unit
(** {!send} one response line. *)

val read_requests : conn -> (Protocol.request -> unit) -> unit
(** {!read} request lines, at most 4 KiB per call, so a pipelined burst
    reaches [serve] a turn at a time. Blank lines are skipped, an
    unparseable line is answered with one id-less error, and an
    over-long one with one [request line too long] error, after which
    the connection closes once that error has flushed. *)

val close_when_flushed : conn -> unit
(** Stop reading; the connection dies at the first {!wait} that finds its
    queue empty. *)

val close : conn -> unit
(** Kill (dropping queued output) and close the owned fds. Idempotent. *)

val flush_all : grace:float -> conn list -> unit
(** Shutdown: flush every queue, waiting at most [grace] seconds in total,
    then abandon whatever is left. *)

val listen : string -> Unix.file_descr
(** A non-blocking listening socket at [path] (a stale file is unlinked). *)

val accept : max_line:int -> Unix.file_descr -> conn option
(** One pending client as a non-blocking connection, if any. *)

val poll : timeout_s:float -> (unit -> 'a option) -> 'a option
(** Retry [f] until [Some], sleeping 1 ms, then doubling up to 5 ms,
    between tries; [None] once [timeout_s] has passed. *)

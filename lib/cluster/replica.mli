(** One engine replica: an [Svc.Server] process behind a Unix socket.

    The router execs its own binary's [serve] subcommand via
    [Unix.create_process] (never [fork]: a forked multicore runtime is
    undefined behaviour once domains exist) and owns the child. *)

type t

val spawn : id:int -> socket:string -> argv:string array -> t
(** Start [argv] (argv.(0) is the executable) as a child process that is
    expected to serve [socket]. Stdio is inherited. *)

val id : t -> int
val socket : t -> string

val pid : t -> int option
(** [None] once the child has been reaped. *)

val alive : t -> bool
(** Non-blocking child check ([waitpid WNOHANG]); [false] once the child
    has exited or been reaped. *)

val try_connect : t -> (Unix.file_descr, string) result
(** One connection attempt to the replica's socket. *)

val wait_socket : ?timeout_s:float -> t -> (unit, string) result
(** Poll-connect until the replica accepts (default 30 s), backing off from
    1 ms to 5 ms between attempts — fails early when a spawned child
    exits before ever serving. *)

val kill : t -> unit
(** SIGKILL the child (no-op once reaped). *)

val reap : ?timeout_s:float -> t -> unit
(** Wait for the child to exit, escalating to SIGKILL after
    [timeout_s] (default 5 s). Idempotent. *)

type t = {
  id : int;
  socket : string;
  mutable pid : int option;  (* None: reaped *)
}

let id t = t.id
let socket t = t.socket
let pid t = t.pid

let spawn ~id ~socket ~argv =
  if Array.length argv = 0 then invalid_arg "Replica.spawn: empty argv";
  (* create_process, never fork: the parent may already have spawned
     domains (the router never does, but the CLI embedding might), and a
     forked multicore runtime is undefined behaviour. The child is a fresh
     exec of our own binary with its own runtime. *)
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  { id; socket; pid = Some pid }

let try_connect t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)

let alive t =
  match t.pid with
  | None -> false
  | Some pid -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> true
      | _ ->
          t.pid <- None;
          false
      | exception Unix.Unix_error (ECHILD, _, _) ->
          t.pid <- None;
          false)

let wait_socket ?(timeout_s = 30.0) t =
  let last = ref "" in
  let ready () =
    match try_connect t with
    | Ok fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Some (Ok ())
    | Error e when alive t ->
        last := e;
        None
    | Error _ ->
        Some (Error (Printf.sprintf "replica %d exited before serving" t.id))
  in
  match Parcfl_svc.Transport.poll ~timeout_s ready with
  | Some r -> r
  | None ->
      Error
        (Printf.sprintf "replica %d socket %s not ready in %.1fs: %s" t.id
           t.socket timeout_s !last)

let kill t =
  match t.pid with
  | None -> ()
  | Some pid -> (
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())

let reap ?(timeout_s = 5.0) t =
  Option.iter
    (fun pid ->
      let exited () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> None
        | _ | (exception Unix.Unix_error (ECHILD, _, _)) -> Some ()
      in
      if Parcfl_svc.Transport.poll ~timeout_s exited = None then begin
        kill t;
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end;
      t.pid <- None)
    t.pid

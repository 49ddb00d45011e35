(* Server processes: each starts in a session of its own, so that the
   whole process group (a cluster router and the replicas it spawns) can be
   torn down at once, and is waited for until it has ended. *)

type t = {
  pid : int;  (** also the process group id *)
  log : string;  (** stdout and stderr of the process *)
  mutable exited : bool;
}

(* Every process group started and not yet stopped, for [stop_all]. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let spawn ~cwd ~log argv =
  let log = Filename.concat cwd log in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match Unix.fork () with
  | 0 -> (
      try
        ignore (Unix.setsid ());
        Unix.chdir cwd;
        let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        Unix.dup2 null Unix.stdin;
        Unix.dup2 fd Unix.stdout;
        Unix.dup2 fd Unix.stderr;
        Unix.execv argv.(0) argv
      with _ -> Unix._exit 127)
  | pid ->
      Unix.close fd;
      Hashtbl.replace live pid ();
      { pid; log; exited = false }

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let alive t =
  (not t.exited)
  &&
  match waitpid_noeintr [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ ->
      t.exited <- true;
      false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      t.exited <- true;
      false

(* A process that is gone or a zombie has ended; replicas orphaned by a
   killed router are reaped by whoever adopts them. *)
let ended pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] = 'Z' || s.[i + 2] = 'X'
      | _ -> false)
  | exception Sys_error _ -> true

(* Peak resident set (VmHWM) in MiB, read while the process still runs. *)
let vmhwm_mb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 match String.split_on_char ' ' (String.trim v) with
                 | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
                 | [] -> None)
             | _ -> None)

let sleep s = try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Waits up to [grace] seconds for a graceful exit, then kills the whole
   group and waits until the leader and every [members] pid has ended. *)
let stop ?(grace = 5.0) ?(members = []) t =
  let deadline = Unix.gettimeofday () +. grace in
  while alive t && Unix.gettimeofday () < deadline do
    sleep 0.005
  done;
  (try Unix.kill (-t.pid) Sys.sigkill with Unix.Unix_error _ -> ());
  if not t.exited then begin
    ignore (waitpid_noeintr [] t.pid);
    t.exited <- true
  end;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    List.exists (fun p -> not (ended p)) members && Unix.gettimeofday () < deadline
  do
    List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) members;
    sleep 0.005
  done;
  Hashtbl.remove live t.pid

(* Kills and reaps whatever a failed run left behind. *)
let stop_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_noeintr [] pid) with Unix.Unix_error _ -> ())
    live;
  Hashtbl.reset live

(* Lowest-priority busy loops, one per core, that keep the cores from
   idling. On a virtual machine an idle core is descheduled by the host, and
   waking it for a timer or a socket write can take milliseconds; with the
   cores busy, the generator's sends and the servers' reads happen on time.
   Any runnable server or generator thread preempts a spinner at once. *)
let spinners n =
  let parent = Unix.getpid () in
  List.init n (fun _ ->
      match Unix.fork () with
      | 0 ->
          ignore (Unix.nice 19);
          let i = ref 0 in
          while true do
            incr i;
            if !i land 0xfffff = 0 && Unix.getppid () <> parent then Unix._exit 0
          done;
          Unix._exit 0
      | pid -> pid)

let stop_spinners pids =
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  List.iter (fun p -> try ignore (waitpid_noeintr [] p) with Unix.Unix_error _ -> ()) pids

let read_log t =
  match In_channel.with_open_text t.log In_channel.input_all with
  | s -> s
  | exception Sys_error _ -> ""

(* Forks a child that computes [f ()] and marshals the result back, so that
   the memory it takes never shows in this process's peak RSS. Must run
   while no other domain is alive. *)
let in_child (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      (try
         Marshal.to_channel oc (Ok (f ()) : ('a, string) result) [];
         close_out oc;
         Unix._exit 0
       with e ->
         (try
            Marshal.to_channel oc (Error (Printexc.to_string e) : ('a, string) result) [];
            close_out oc
          with _ -> ());
         Unix._exit 1)
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file -> Error "child died without a result"
      in
      close_in ic;
      ignore (waitpid_noeintr [] pid);
      match r with Ok v -> v | Error e -> failwith ("child: " ^ e))

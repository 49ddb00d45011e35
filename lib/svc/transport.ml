let max_reply_line = 1 lsl 20
let read_size = 65536

(* Requests are read 4 KiB at a time: [serve] admits every line of a
   read before it pumps, so a larger read would let one pipelined burst
   overrun the admission queue that pumping between reads keeps short. *)
let request_read_size = 4096
let output_cap = 4 * max_reply_line
let n_dropped = ref 0
let dropped () = !n_dropped

type framer = { max_line : int; partial : Buffer.t; mutable overflowed : bool }

let framer ~max_line =
  { max_line; partial = Buffer.create 256; overflowed = false }

(* Only the new bytes are scanned for a newline; an unterminated tail
   waits in [partial] for the rest of its line. *)
let feed f b off len ~on_line ~on_overflow =
  let stop = off + len in
  let rec go start =
    if (not f.overflowed) && start < stop then begin
      let nl =
        match Bytes.index_from_opt b start '\n' with
        | Some i when i < stop -> i
        | _ -> -1
      in
      let n = (if nl < 0 then stop else nl) - start in
      if Buffer.length f.partial + n > f.max_line then begin
        f.overflowed <- true;
        Buffer.reset f.partial;
        on_overflow ()
      end
      else begin
        Buffer.add_subbytes f.partial b start n;
        if nl >= 0 then begin
          let line = Buffer.contents f.partial in
          Buffer.clear f.partial;
          let k = String.length line in
          on_line
            (if k > 0 && line.[k - 1] = '\r' then String.sub line 0 (k - 1)
             else line);
          go (nl + 1)
        end
      end
    end
  in
  go off

type conn = {
  in_fd : Unix.file_descr;
  out : Unix.file_descr;
  mutable owned : bool;  (* fds still to close *)
  fr : framer;
  chunk : Bytes.t;
  queue : string Queue.t;  (* unsent output, oldest first *)
  mutable head_off : int;  (* bytes of the head already written *)
  mutable queued : int;  (* unsent bytes in the queue *)
  mutable alive : bool;
  mutable closing : bool;
}

let create ?out_fd ?(owned = true) ~max_line fd =
  { in_fd = fd; out = Option.value out_fd ~default:fd; owned;
    fr = framer ~max_line; chunk = Bytes.create read_size; queue = Queue.create ();
    head_off = 0; queued = 0; alive = true; closing = false }

let alive c = c.alive
let readable c = c.alive && not c.closing
let wants_write c = c.alive && not (Queue.is_empty c.queue)

let kill c =
  c.alive <- false;
  Queue.clear c.queue;
  c.queued <- 0

let close c =
  kill c;
  if c.owned then begin
    c.owned <- false;
    (try Unix.close c.in_fd with Unix.Unix_error _ -> ());
    if c.out <> c.in_fd then try Unix.close c.out with Unix.Unix_error _ -> ()
  end

(* Bytes of [s] from [off] the kernel took (0 on EAGAIN); an error kills. *)
let rec write_some c s off =
  match Unix.write_substring c.out s off (String.length s - off) with
  | n -> n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> 0
  | exception Unix.Unix_error (EINTR, _, _) -> write_some c s off
  | exception Unix.Unix_error _ ->
      kill c;
      0

let rec flush c =
  if wants_write c then begin
    let s = Queue.peek c.queue in
    let n = write_some c s c.head_off in
    c.queued <- c.queued - n;
    c.head_off <- c.head_off + n;
    if c.alive && c.head_off = String.length s then begin
      ignore (Queue.pop c.queue);
      c.head_off <- 0;
      flush c
    end
  end

let send c s =
  if not c.alive then ()
  else if Queue.is_empty c.queue then begin
    let n = write_some c s 0 in
    if c.alive && n < String.length s then begin
      Queue.push s c.queue;
      c.head_off <- n;
      c.queued <- String.length s - n
    end
  end
  else if c.queued + String.length s > output_cap then begin
    incr n_dropped;
    kill c
  end
  else begin
    Queue.push s c.queue;
    c.queued <- c.queued + String.length s
  end

let close_when_flushed c = c.closing <- true

let rec read_up_to size c ~on_line ~on_overflow =
  if readable c then
    match Unix.read c.in_fd c.chunk 0 size with
    | 0 -> close_when_flushed c
    | n ->
        feed c.fr c.chunk 0 n
          ~on_line:(fun l -> if c.alive then on_line l)
          ~on_overflow
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) ->
        read_up_to size c ~on_line ~on_overflow
    | exception Unix.Unix_error _ -> kill c

let read = read_up_to read_size

let wait ~listeners ~read ~write timeout =
  List.iter (fun c -> if c.closing && Queue.is_empty c.queue then kill c) write;
  let read = List.filter readable read in
  let write = List.filter wants_write write in
  match
    Unix.select (listeners @ List.map (fun c -> c.in_fd) read)
      (List.map (fun c -> c.out) write) [] timeout
  with
  | ready, writable, _ ->
      List.iter (fun c -> if List.mem c.out writable then flush c) write;
      ( List.filter (fun l -> List.mem l ready) listeners,
        List.filter (fun c -> List.mem c.in_fd ready) read )
  | exception Unix.Unix_error (EINTR, _, _) -> ([], [])

let reply c r = send c (Protocol.response_line r)

let read_requests c handle =
  read_up_to request_read_size c
    ~on_line:(fun line ->
      if String.trim line <> "" then
        match Protocol.parse_request line with
        | Ok req -> handle req
        | Error reason -> reply c (Protocol.Error { id = None; reason }))
    ~on_overflow:(fun () ->
      reply c (Protocol.Error { id = None; reason = "request line too long" });
      close_when_flushed c)

let flush_all ~grace conns =
  let stop = Unix.gettimeofday () +. grace in
  let rec go () =
    let left = stop -. Unix.gettimeofday () in
    if List.exists wants_write conns && left > 0.0 then begin
      ignore (wait ~listeners:[] ~read:[] ~write:conns left);
      go ()
    end
  in
  go ()

let listen path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let accept ~max_line listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      Some (create ~max_line fd)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> None

(* Short enough that a waiter overshoots readiness by at most one brief
   sleep: cluster boot waits through this. *)
let max_poll_pause = 0.005

let poll ~timeout_s f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go pause =
    match f () with
    | Some _ as r -> r
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then None
        else begin
          Unix.sleepf (Float.min pause left);
          go (Float.min (2.0 *. pause) max_poll_pause)
        end
  in
  go 0.001

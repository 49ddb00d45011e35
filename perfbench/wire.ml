(* The load generator: one thread multiplexing at most [nproc] Unix-socket
   connections with [Unix.select]. Requests are pipelined and correlated
   by id, either on an open-loop schedule (each request has a due time and
   is sent then, whatever the backlog) or through a fixed window of
   outstanding requests per connection (capacity bursts). *)

type req = {
  id : int;
  line : string;  (** the request line, without newline *)
  conn : int;
  mutable due : float;  (** absolute send time; open loop only *)
  mutable sent : float;
  mutable recv : float;
  mutable reply : string option;
}

let make_req ~id ~conn line =
  { id; line; conn; due = 0.0; sent = 0.0; recv = 0.0; reply = None }

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable pend : string;  (** bytes queued for writing *)
  mutable inflight : int;
  mutable dead : bool;
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      Ok { fd; inbuf = Buffer.create 4096; pend = ""; inflight = 0; dead = false }
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush c =
  if (not c.dead) && c.pend <> "" then
    match Unix.write_substring c.fd c.pend 0 (String.length c.pend) with
    | n -> c.pend <- String.sub c.pend n (String.length c.pend - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.dead <- true

let chunk = Bytes.create 65536

(* Reads what is available and calls [on_line] on each complete line. *)
let drain c ~on_line =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.dead <- true
  | n ->
      Buffer.add_subbytes c.inbuf chunk 0 n;
      let s = Buffer.contents c.inbuf in
      let start = ref 0 in
      String.iteri
        (fun i ch ->
          if ch = '\n' then begin
            on_line (String.sub s !start (i - !start));
            start := i + 1
          end)
        s;
      Buffer.clear c.inbuf;
      Buffer.add_substring c.inbuf s !start (String.length s - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.dead <- true

(* Replies are rendered with "id" as their first key; reading it without a
   full JSON parse keeps the generator's own cost off the schedule. *)
let id_of_line line =
  let pre = "{\"id\":" in
  let lp = String.length pre in
  if String.length line > lp && String.sub line 0 lp = pre then begin
    let j = ref lp in
    while !j < String.length line && (line.[!j] = '-' || (line.[!j] >= '0' && line.[!j] <= '9')) do
      incr j
    done;
    int_of_string_opt (String.sub line lp (!j - lp))
  end
  else None

(* How long before a due send the open loop stops sleeping and polls. *)
let spin_s = 0.0003

type policy =
  | Open_loop  (** send each request at its [due] time *)
  | Window of int  (** keep at most this many outstanding per connection *)

(* Runs [reqs] (ids [base .. base+n-1], in send order) over [conns] until
   every request has a reply, its connection has died, or [deadline]
   passes. *)
let run ~policy ~conns ~deadline (reqs : req array) =
  let n = Array.length reqs in
  let base = if n = 0 then 0 else reqs.(0).id in
  let next = ref 0 and settled = ref 0 in
  let settle_dead () =
    (* requests on a dead connection will never be answered *)
    settled :=
      Array.fold_left
        (fun k r ->
          if r.reply <> None || (r.sent > 0.0 && conns.(r.conn).dead) then k + 1 else k)
        0 reqs
  in
  let on_line now line =
    match id_of_line line with
    | Some id when id >= base && id < base + n ->
        let r = reqs.(id - base) in
        if r.reply = None then begin
          r.reply <- Some line;
          r.recv <- now;
          incr settled;
          let c = conns.(r.conn) in
          c.inflight <- c.inflight - 1
        end
    | _ -> ()
  in
  let ready now =
    !next < n
    &&
    let r = reqs.(!next) in
    match policy with
    | Open_loop -> r.due <= now
    | Window w -> conns.(r.conn).inflight < w
  in
  while !settled < n && Unix.gettimeofday () < deadline do
    let now = Unix.gettimeofday () in
    while ready now do
      let r = reqs.(!next) in
      let c = conns.(r.conn) in
      r.sent <- now;
      c.inflight <- c.inflight + 1;
      c.pend <- c.pend ^ r.line ^ "\n";
      incr next
    done;
    Array.iter flush conns;
    if Array.exists (fun c -> c.dead) conns then settle_dead ();
    let timeout =
      match policy with
      | Open_loop when !next < n ->
          (* sleep until shortly before the next send, then poll, so that a
             late wake-up does not delay it *)
          let left = reqs.(!next).due -. Unix.gettimeofday () in
          if left <= spin_s then 0.0 else left -. spin_s
      | _ -> 0.05
    in
    let live = Array.to_list conns |> List.filter (fun c -> not c.dead) in
    let rd = List.map (fun c -> c.fd) live in
    let wr = List.filter_map (fun c -> if c.pend <> "" then Some c.fd else None) live in
    if live = [] then Proc.sleep timeout
    else
      match Unix.select rd wr [] timeout with
      | readable, _, _ ->
          let now = Unix.gettimeofday () in
          List.iter
            (fun c -> if List.memq c.fd readable then drain c ~on_line:(on_line now))
            live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* One request on a fresh connection: the reply line, or why there is
   none. Used to probe readiness. *)
let request_once ~timeout path line =
  match connect path with
  | Error e -> Error e
  | Ok c ->
      let id =
        match Parcfl.Svc_protocol.parse_request line with
        | Ok req -> Option.value (Parcfl.Svc_protocol.request_id req) ~default:0
        | Error _ -> 0
      in
      let r = make_req ~id ~conn:0 line in
      run ~policy:(Window 1) ~conns:[| c |] ~deadline:(Unix.gettimeofday () +. timeout) [| r |];
      close c;
      (match r.reply with Some l -> Ok l | None -> Error "no reply")

let quit path =
  match connect path with
  | Error _ -> ()
  | Ok c ->
      c.pend <- "quit\n";
      let deadline = Unix.gettimeofday () +. 1.0 in
      while c.pend <> "" && (not c.dead) && Unix.gettimeofday () < deadline do
        flush c;
        if c.pend <> "" then Proc.sleep 0.001
      done;
      close c

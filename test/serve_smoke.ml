(* CI smoke test for `parcfl serve`: start the real binary on a pipe pair
   (the stdio transport), send a ping, three queries — one repeated so the
   cross-batch cache must hit — a retired `snapshot` verb (an error reply)
   and a stats probe, then quit and check
   every response, including that served answers equal a direct in-process
   solve of the same variables. An EOF leg closes stdin without a quit
   while queries wait in a micro-batch: every one must still be answered.
   A socket leg drives `serve --socket` with a client that pipelines stats
   and never reads: another client's round trips must stay fast, and the
   non-reader must be dropped and counted. The same leg then checks work
   conservation: a lone query on the idle server waits under 2 ms before
   its solve, and a 128-query burst in one write still forms a full
   batch. A pushback leg pipes 1,000 distinct cache misses into a server
   at default settings: none may be refused. A usage leg starts
   `serve --max-batch 0`, `serve -t 0`, `cluster --poll-ms 0` and
   `cluster -r 0`; each must exit 124 with cmdliner's usage message, not
   an uncaught exception, a clamped value or a started cluster.

   Usage: serve_smoke.exe <path/to/parcfl_cli.exe> *)

module P = Parcfl
module Proto = P.Svc_protocol

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let () =
  if Array.length Sys.argv < 2 then fail "usage: serve_smoke <parcfl_cli.exe>";
  let cli = Sys.argv.(1) in
  if not (Sys.file_exists cli) then fail "no such binary %s" cli;

  (* The ground truth: the same deterministic benchmark the server builds. *)
  let bench =
    match P.Suite.build_by_name "tiny" with
    | Some b -> b
    | None -> fail "tiny benchmark missing"
  in
  let expected v =
    let session =
      P.Solver.make_session ~config:P.Config.default
        ~ctx_store:(P.Ctx.create_store ()) bench.P.Suite.pag
    in
    P.Query.objects (P.Solver.points_to session v).P.Query.result
    |> List.map (P.Pag.obj_name bench.P.Suite.pag)
    |> List.sort_uniq compare
  in
  let v0 = bench.P.Suite.queries.(0) in
  let v1 = bench.P.Suite.queries.(min 1 (Array.length bench.P.Suite.queries - 1)) in

  let to_child_r, to_child_w = Unix.pipe ~cloexec:false () in
  let from_child_r, from_child_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "-b"; "tiny"; "-t"; "1"; "--stdio" |]
      to_child_r from_child_w Unix.stderr
  in
  Unix.close to_child_r;
  Unix.close from_child_w;
  let oc = Unix.out_channel_of_descr to_child_w in
  let ic = Unix.in_channel_of_descr from_child_r in

  let deadline = Unix.gettimeofday () +. 120.0 in
  let send r =
    output_string oc (Proto.request_to_string r ^ "\n");
    flush oc
  in
  let recv () =
    if Unix.gettimeofday () > deadline then fail "smoke test deadline exceeded";
    match input_line ic with
    | line -> (
        match Proto.response_of_string line with
        | Ok r -> r
        | Error e -> fail "bad response %S: %s" line e)
    | exception End_of_file -> fail "server closed the stream early"
  in

  send (Proto.Ping 1);
  (match recv () with
  | Proto.Pong 1 -> ()
  | r -> fail "expected pong, got %s" (Proto.response_to_string r));

  let ask id v =
    send
      (Proto.Query
         { id; var = Printf.sprintf "#%d" v; budget = None; deadline_ms = None; trace = None })
  in
  let expect_answer id v ~cached_ok =
    match recv () with
    | Proto.Answer { id = id'; objects; cached; latency_us; breakdown; _ }
      when id' = id ->
        if objects <> expected v then fail "query %d: wrong points-to set" id;
        if (not cached_ok) && cached then fail "query %d: unexpected cache hit" id;
        (* The lifecycle breakdown must account for the reported latency:
           four non-negative stages summing to within 5% of the total. *)
        List.iter
          (fun s -> if s < 0.0 then fail "query %d: negative stage" id)
          (P.Svc_span.stage_values breakdown);
        let sum = P.Svc_span.total_us breakdown in
        if abs_float (sum -. latency_us) > (0.05 *. latency_us) +. 1.0 then
          fail "query %d: breakdown sums to %.1fus, latency is %.1fus" id sum
            latency_us;
        if (not cached) && latency_us <= 0.0 then
          fail "query %d: cold answer with no latency" id;
        cached
    | r -> fail "query %d: unexpected %s" id (Proto.response_to_string r)
  in
  (* Three queries; responses come back in completion order per request,
     one line each, on one pipe — ask and await one at a time. *)
  ask 10 v0;
  ignore (expect_answer 10 v0 ~cached_ok:false);
  ask 11 v1;
  ignore (expect_answer 11 v1 ~cached_ok:(v1 = v0));
  ask 12 v0;
  if not (expect_answer 12 v0 ~cached_ok:true) then
    fail "repeated query 12 missed the cache";

  (* The retired snapshot verb is an unknown request like any other: one
     error reply, and the server keeps answering (the stats probe next). *)
  output_string oc "snapshot 1\n";
  flush oc;
  (match recv () with
  | Proto.Error _ -> ()
  | r -> fail "snapshot 1: expected an error, got %s" (Proto.response_to_string r));

  send (Proto.Stats 20);
  (match recv () with
  | Proto.Stats_reply { id = 20; stats = P.Json.Obj fields } -> (
      match List.assoc_opt "cache_hits" fields with
      | Some (P.Json.Int h) when h >= 1 -> ()
      | _ -> fail "stats report no cache hits")
  | r -> fail "expected stats, got %s" (Proto.response_to_string r));

  (* Telemetry: a full Prometheus exposition over the same wire. *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  send (Proto.Metrics 21);
  (match recv () with
  | Proto.Metrics_reply { id = 21; body } ->
      List.iter
        (fun needle ->
          if not (contains needle body) then
            fail "metrics exposition lacks %S" needle)
        [
          "# TYPE parcfl_jmp_hits_total counter";
          "# TYPE parcfl_sched_groups_total counter";
          "# TYPE parcfl_cache_evictions_total counter";
          "# TYPE parcfl_svc_latency_us histogram";
          "parcfl_svc_latency_us_bucket{le=\"+Inf\"}";
          "# TYPE parcfl_stage_seconds histogram";
          "parcfl_stage_seconds_bucket{stage=\"solve\"";
          "# TYPE parcfl_svc_healthy gauge";
          "parcfl_svc_healthy 1";
        ]
  | r -> fail "expected metrics, got %s" (Proto.response_to_string r));

  (* Liveness: a serving, progressing server reports healthy. *)
  send (Proto.Health 23);
  (match recv () with
  | Proto.Health_reply { id = 23; healthy = true; reasons = [] } -> ()
  | Proto.Health_reply { id = 23; healthy = false; reasons } ->
      fail "healthy server reports degraded: %s" (String.concat "; " reasons)
  | r -> fail "expected health, got %s" (Proto.response_to_string r));

  (* The flight recorder saw the three answered queries. *)
  send (Proto.Slowlog { id = 22; limit = Some 2 });
  (match recv () with
  | Proto.Slowlog_reply { id = 22; entries = P.Json.List l } ->
      if l = [] then fail "slowlog is empty after three queries";
      if List.length l > 2 then fail "slowlog ignored the limit"
  | r -> fail "expected slowlog, got %s" (Proto.response_to_string r));

  (* Provenance over the wire: explain one (var, obj) fact and hold the
     served chain to the library's own witness for the same pair — same
     depth, same stable edge ids, and the chain must replay. *)
  let explain_session =
    P.Solver.make_session ~config:P.Config.default
      ~ctx_store:(P.Ctx.create_store ()) bench.P.Suite.pag
  in
  let explain_obj =
    match
      P.Query.objects (P.Solver.points_to explain_session v0).P.Query.result
    with
    | o :: _ -> o
    | [] -> fail "query variable %d has an empty points-to set" v0
  in
  send
    (Proto.Explain
       {
         id = 25;
         var = Printf.sprintf "#%d" v0;
         obj = Printf.sprintf "#%d" explain_obj;
       });
  (match recv () with
  | Proto.Explain_reply
      { id = 25; found = true; depth; latency_us; chain = P.Json.List edges; _ }
    -> (
      if latency_us < 0.0 then fail "explain reports negative latency";
      if edges = [] then fail "explain found the fact but sent no chain";
      match P.Solver.explain explain_session v0 explain_obj with
      | None -> fail "library explain lost the served fact"
      | Some w ->
          if P.Solver.Witness.depth w <> depth then
            fail "wire depth %d, library depth %d" depth
              (P.Solver.Witness.depth w);
          (match
             P.Solver.Witness.replay bench.P.Suite.pag ~query:v0 w
           with
          | Ok () -> ()
          | Error e -> fail "library witness fails replay: %s" e);
          let wire_ids =
            List.filter_map
              (fun e ->
                match e with
                | P.Json.Obj fields -> (
                    match List.assoc_opt "edge" fields with
                    | Some (P.Json.Int id) -> Some id
                    | _ -> None)
                | _ -> None)
              edges
          in
          (match P.Solver.Witness.edge_ids bench.P.Suite.pag w with
          | Ok ids when ids = wire_ids -> ()
          | Ok _ -> fail "wire chain ids differ from the library witness"
          | Error e -> fail "library chain has no ids: %s" e))
  | r -> fail "expected explain reply, got %s" (Proto.response_to_string r));

  send Proto.Quit;
  close_out oc;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "server exited %d" n
  | Unix.WSIGNALED n -> fail "server killed by signal %d" n
  | Unix.WSTOPPED n -> fail "server stopped by signal %d" n);

  (* Oracle leg: an --insensitive --oracle server must return exactly the
     (id, var, objects) payloads of an --insensitive server without the
     tier, and account the traffic as oracle hits. The "cold answer with
     no latency" rule above deliberately does NOT apply here: the tier's
     latency is a paired wall-clock read that may quantise to ~0. *)
  let with_server extra_args f =
    let to_r, to_w = Unix.pipe ~cloexec:false () in
    let from_r, from_w = Unix.pipe ~cloexec:false () in
    let pid =
      Unix.create_process cli
        (Array.append
           [| cli; "serve"; "-b"; "tiny"; "-t"; "1"; "--stdio" |]
           extra_args)
        to_r from_w Unix.stderr
    in
    Unix.close to_r;
    Unix.close from_w;
    let oc = Unix.out_channel_of_descr to_w in
    let ic = Unix.in_channel_of_descr from_r in
    let send r =
      output_string oc (Proto.request_to_string r ^ "\n");
      flush oc
    in
    let recv () =
      if Unix.gettimeofday () > deadline then fail "smoke test deadline exceeded";
      match input_line ic with
      | line -> (
          match Proto.response_of_string line with
          | Ok r -> r
          | Error e -> fail "bad response %S: %s" line e)
      | exception End_of_file -> fail "oracle leg: server closed the stream"
    in
    let out = f ~send ~recv in
    send Proto.Quit;
    close_out oc;
    let _, status = Unix.waitpid [] pid in
    (match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n -> fail "oracle-leg server exited %d" n
    | Unix.WSIGNALED n -> fail "oracle-leg server killed by signal %d" n
    | Unix.WSTOPPED n -> fail "oracle-leg server stopped by signal %d" n);
    out
  in
  let probe = [ (30, v0); (31, v1); (32, v0) ] in
  let ask_all ~send ~recv =
    List.map
      (fun (id, v) ->
        send
          (Proto.Query
             {
               id;
               var = Printf.sprintf "#%d" v;
               budget = None;
               deadline_ms = None;
               trace = None;
             });
        match recv () with
        | Proto.Answer { id = id'; var; objects; _ } when id' = id ->
            (id, var, objects)
        | r -> fail "oracle leg query %d: unexpected %s" id
                 (Proto.response_to_string r))
      probe
  in
  let plain = with_server [| "--insensitive" |] ask_all in
  let oracled =
    with_server [| "--insensitive"; "--oracle" |] (fun ~send ~recv ->
        let got = ask_all ~send ~recv in
        send (Proto.Stats 40);
        (match recv () with
        | Proto.Stats_reply { id = 40; stats = P.Json.Obj fields } ->
            (match List.assoc_opt "oracle_hits" fields with
            | Some (P.Json.Int h) when h >= List.length probe -> ()
            | _ -> fail "oracle server did not answer from the tier");
            (match List.assoc_opt "oracle_live" fields with
            | Some (P.Json.Int 1) -> ()
            | _ -> fail "oracle server reports the tier dead")
        | r -> fail "expected oracle stats, got %s" (Proto.response_to_string r));
        got)
  in
  List.iter2
    (fun (id, var, objects) (id', var', objects') ->
      if id <> id' || var <> var' || objects <> objects' then
        fail "oracle leg: answer %d differs between the tiers" id)
    plain oracled;

  (* EOF leg: stdin ends without a quit while queries still wait in a
     micro-batch; the drain must still answer every one of them. *)
  (* Close-on-exec, so the server holds no copy of the write end and
     sees end of stream when this side closes it. *)
  (let to_r, to_w = Unix.pipe ~cloexec:true () in
   let from_r, from_w = Unix.pipe ~cloexec:true () in
   let pid =
     Unix.create_process cli
       [| cli; "serve"; "-b"; "tiny"; "-t"; "1"; "--stdio" |]
       to_r from_w Unix.stderr
   in
   Unix.close to_r;
   Unix.close from_w;
   let oc = Unix.out_channel_of_descr to_w in
   List.iter
     (fun (id, v) ->
       output_string oc
         (Proto.request_to_string
            (Proto.Query
               { id; var = Printf.sprintf "#%d" v; budget = None;
                 deadline_ms = None; trace = None })
         ^ "\n"))
     probe;
   close_out oc;
   let ic = Unix.in_channel_of_descr from_r in
   let answered =
     List.map
       (fun _ ->
         match Proto.response_of_string (input_line ic) with
         | Ok (Proto.Answer { id; objects; _ }) -> (id, objects)
         | _ -> fail "EOF leg: expected an answer"
         | exception End_of_file -> fail "EOF leg: answers lost at stdin EOF")
       probe
   in
   List.iter
     (fun (id, v) ->
       if List.assoc_opt id answered <> Some (expected v) then
         fail "EOF leg: query %d unanswered or wrong" id)
     probe;
   match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> close_in ic
   | _ -> fail "EOF leg: server did not exit cleanly");

  (* Usage leg: an out-of-range size or interval is a usage error (exit
     124), reported before anything is built or spawned. The cluster
     cases pass no --socket, so a build that accepts the value exits 1
     instead of starting a cluster. *)
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let err_r, err_w = Unix.pipe ~cloexec:true () in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
      let pid =
        Unix.create_process cli
          (Array.of_list ((cli :: args) @ [ "-b"; "tiny" ]))
          null null err_w
      in
      Unix.close err_w;
      Unix.close null;
      let ic = Unix.in_channel_of_descr err_r in
      let err = In_channel.input_all ic in
      close_in ic;
      let mentions sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length err && (String.sub err i n = sub || go (i + 1))
        in
        go 0
      in
      if mentions "uncaught exception" then
        fail "usage leg: %s raised: %s" what err;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 124 -> ()
      | _, Unix.WEXITED n -> fail "usage leg: %s exited %d, not 124" what n
      | _ -> fail "usage leg: %s did not exit" what)
    [
      [ "serve"; "-t"; "1"; "--max-batch"; "0" ];
      [ "serve"; "-t"; "0" ];
      [ "cluster"; "--poll-ms"; "0" ];
      [ "cluster"; "-r"; "0" ];
    ];

  (* Pushback leg: one write of 1,000 distinct (variable, budget) cache
     misses, over 15 times [max_batch], reaches an idle server at default
     settings. It solves a full batch before it handles the next line, so
     the burst waits in the pipe and no query is refused. *)
  (let to_r, to_w = Unix.pipe ~cloexec:true () in
   let from_r, from_w = Unix.pipe ~cloexec:true () in
   let pid =
     Unix.create_process cli
       [| cli; "serve"; "-b"; "tiny"; "-t"; "1"; "--stdio" |]
       to_r from_w Unix.stderr
   in
   Unix.close to_r;
   Unix.close from_w;
   let n = 1000 and n_vars = P.Pag.n_vars bench.P.Suite.pag in
   let oc = Unix.out_channel_of_descr to_w in
   for k = 0 to n - 1 do
     output_string oc
       (Proto.request_to_string
          (Proto.Query
             { id = k; var = Printf.sprintf "#%d" (k mod n_vars);
               budget = Some (1_000 + k); deadline_ms = None; trace = None })
       ^ "\n")
   done;
   (* Under a pipe buffer: the write completes before any reply is read. *)
   close_out oc;
   let ic = Unix.in_channel_of_descr from_r in
   for _ = 1 to n do
     match Proto.response_of_string (input_line ic) with
     | Ok (Proto.Answer _ | Proto.Timeout _) -> ()
     | Ok r -> fail "pushback leg: unexpected %s" (Proto.response_to_string r)
     | Error e -> fail "pushback leg: bad reply: %s" e
     | exception End_of_file -> fail "pushback leg: replies lost"
   done;
   match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> close_in ic
   | _ -> fail "pushback leg: server did not exit cleanly");

  (* Slow-reader leg: client A pipelines 240 KB of stats lines and never
     reads its replies; client B's pings and queries must still come back
     within 100 ms (p95), A must be dropped once its queued replies pass
     the output cap, and the server must count exactly that one drop. *)
  let sock =
    Printf.sprintf "%s/parcfl_serve_smoke_%d.sock"
      (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "-b"; "tiny"; "-t"; "1"; "--socket"; sock |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* A failed check must not leave the server holding stdout open. *)
  let exited = ref false in
  at_exit (fun () ->
      if not !exited then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let connect () =
    let rec go tries =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> fd
      | exception Unix.Unix_error _ ->
          Unix.close fd;
          if tries > 600 then fail "slow-reader leg: %s never accepted" sock;
          Unix.sleepf 0.05;
          go (tries + 1)
    in
    go 0
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = connect () in
  let flood = Buffer.create (256 * 1024) in
  let i = ref 0 in
  while Buffer.length flood < 240 * 1024 do
    Buffer.add_string flood (Printf.sprintf "stats %d\n" !i);
    incr i
  done;
  (* Non-blocking, so a server that stops reading A (wedged in a write to
     A) fails client B's checks below instead of hanging this test. *)
  Unix.set_nonblock a;
  (let s = Buffer.to_bytes flood in
   let rec go off =
     if off < Bytes.length s then
       match Unix.select [] [ a ] [] 2.0 with
       | _, [], _ -> () (* the server stopped reading A *)
       | _ -> (
           match Unix.single_write a s off (Bytes.length s - off) with
           | n -> go (off + n)
           | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> go off
           | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
               () (* dropped before it finished writing *))
   in
   go 0);
  let b = connect () in
  let framer = P.Svc_transport.framer ~max_line:max_int in
  let b_lines = Queue.create () and chunk = Bytes.create 65536 in
  let rec recv_line () =
    match Queue.take_opt b_lines with
    | Some line -> line
    | None -> (
        match Unix.select [ b ] [] [] 10.0 with
        | [], _, _ -> fail "slow-reader leg: no reply to client B in 10s"
        | _ -> (
            match Unix.read b chunk 0 (Bytes.length chunk) with
            | 0 -> fail "slow-reader leg: server closed client B"
            | n ->
                P.Svc_transport.feed framer chunk 0 n ~on_overflow:ignore
                  ~on_line:(fun l -> Queue.push l b_lines);
                recv_line ()))
  in
  let round_trip req =
    let line = Proto.request_to_string req ^ "\n" in
    let t0 = Unix.gettimeofday () in
    ignore (Unix.write_substring b line 0 (String.length line));
    let reply = recv_line () in
    let dt = Unix.gettimeofday () -. t0 in
    match Proto.response_of_string reply with
    | Ok r -> (r, dt)
    | Error e -> fail "slow-reader leg: bad reply %S: %s" reply e
  in
  let rtts =
    List.init 60 (fun k ->
        let r, dt =
          if k mod 2 = 0 then round_trip (Proto.Ping k)
          else
            round_trip
              (Proto.Query
                 {
                   id = k;
                   var = Printf.sprintf "#%d" v0;
                   budget = None;
                   deadline_ms = None;
                   trace = None;
                 })
        in
        (match r with
        | Proto.Pong id when id = k -> ()
        | Proto.Answer { id; objects; _ } when id = k ->
            if objects <> expected v0 then
              fail "slow-reader leg: query %d: wrong points-to set" k
        | r -> fail "slow-reader leg: request %d got %s" k
                 (Proto.response_to_string r));
        Unix.sleepf 0.01;
        dt)
    |> List.sort compare |> Array.of_list
  in
  let p95 = rtts.(int_of_float (0.95 *. float_of_int (Array.length rtts - 1))) in
  if p95 > 0.1 then
    fail "slow-reader leg: client B p95 %.1f ms with a non-reading client"
      (p95 *. 1000.0);
  (* A was dropped: its socket reaches end of stream (after whatever
     replies the kernel had already accepted). *)
  (let stop = Unix.gettimeofday () +. 10.0 in
   let rec drain () =
     let left = stop -. Unix.gettimeofday () in
     if left <= 0.0 then fail "slow-reader leg: client A was never dropped";
     match Unix.select [ a ] [] [] left with
     | [], _, _ -> fail "slow-reader leg: client A was never dropped"
     | _ -> (
         match Unix.read a chunk 0 (Bytes.length chunk) with
         | 0 -> ()
         | _ -> drain ()
         | exception Unix.Unix_error (ECONNRESET, _, _) -> ())
   in
   drain ();
   Unix.close a);
  (match round_trip (Proto.Metrics 99) with
  | Proto.Metrics_reply { id = 99; body }, _ -> (
      match P.Expo.parse_families body with
      | Error e -> fail "slow-reader leg: exposition does not parse: %s" e
      | Ok fams -> (
          match
            List.find_opt
              (fun f ->
                P.Expo.family_name f = "parcfl_svc_slow_peers_dropped_total")
              fams
          with
          | Some (P.Expo.Counter { samples = [ { value = 1.0; _ } ]; _ }) -> ()
          | Some _ -> fail "slow-reader leg: expected exactly one slow peer dropped"
          | None -> fail "slow-reader leg: no slow-peer counter in the exposition"))
  | r, _ -> fail "slow-reader leg: expected metrics, got %s"
              (Proto.response_to_string r));
  (* Work conservation: a lone cache miss on an idle server is batched on
     the read turn that brings it in. *)
  let miss_var = if v0 = 0 then 1 else 0 in
  (match
     round_trip
       (Proto.Query
          { id = 100; var = Printf.sprintf "#%d" miss_var; budget = None;
            deadline_ms = None; trace = None })
   with
  | Proto.Answer { id = 100; cached = false; breakdown = bd; _ }, _ ->
      let waited = bd.P.Svc_span.bd_queue_wait_us +. bd.P.Svc_span.bd_batch_wait_us in
      if waited >= 2000.0 then
        fail "idle server held a lone query %.0f us before solving it" waited
  | r, _ -> fail "idle leg: expected an uncached answer, got %s"
              (Proto.response_to_string r));
  (* Batches still group under burst: 128 distinct (variable, budget)
     cache misses in one write arrive in one read turn, so at least one
     batch is formed full. *)
  let burst = 128 in
  let lines =
    List.init burst (fun k ->
        Proto.request_to_string
          (Proto.Query
             { id = 200 + k; var = Printf.sprintf "#%d" (k mod 64);
               budget = Some (1_000 + k); deadline_ms = None; trace = None })
        ^ "\n")
    |> String.concat ""
  in
  ignore (Unix.write_substring b lines 0 (String.length lines));
  for _ = 1 to burst do
    match Proto.response_of_string (recv_line ()) with
    | Ok (Proto.Answer { cached = false; _ } | Proto.Timeout { cached = false; _ }) -> ()
    | Ok r -> fail "burst leg: unexpected %s" (Proto.response_to_string r)
    | Error e -> fail "burst leg: bad reply: %s" e
  done;
  (match round_trip (Proto.Stats 98) with
  | Proto.Stats_reply { id = 98; stats = P.Json.Obj fields }, _ -> (
      match List.assoc_opt "flushes_full" fields with
      | Some (P.Json.Int n) when n >= 1 -> ()
      | _ -> fail "burst leg: %d queries in one write formed no full batch" burst)
  | r, _ -> fail "burst leg: expected stats, got %s" (Proto.response_to_string r));
  ignore (Unix.write_substring b "quit\n" 0 5);
  let _, status = Unix.waitpid [] pid in
  exited := true;
  if status <> Unix.WEXITED 0 then fail "slow-reader leg: server did not exit cleanly";
  Unix.close b;
  Printf.printf "serve smoke: ok (slow reader dropped, client B p95 %.1f ms)\n"
    (p95 *. 1000.0)

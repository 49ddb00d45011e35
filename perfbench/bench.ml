(* The parcfl benchmark: one workload per invocation.

     bench.exe --workload batch-dq|serve-cs|routed-ci --seed N --seconds S
               --trace 0|1 --cli PATH [--rundir DIR]
     bench.exe --self-test

   batch-dq   every application query of the tomcat profile through
              Runner.run ~mode:Share_sched ~threads:2, pass after pass,
              each pass with a fresh jmp store (the paper's experiment);
   serve-cs   a real `parcfl serve -b tomcat -t 2` on a Unix socket under a
              seeded open-loop query mix;
   routed-ci  a real `parcfl cluster -b tomcat -r 2 -t 1 --insensitive
              --oracle` under a seeded open-loop mix of plain queries (the
              oracle tier), budget-refined queries (cache, batcher and
              solver) and explain requests.

   Every answer is checked against an independent reference computed in a
   forked child before the clock starts. The last stdout line is the JSON
   result; with --trace 0 it carries the end-to-end metrics, with --trace 1
   the per-layer ledger, and a Chrome trace of the bench-side spans is
   written under --rundir. *)

module P = Parcfl

type kind = Check.kind = Plain of int | Refined of int | Explain of int * int

let judge_reply = Check.judge_reply
let query_line = Check.query_line

let profile_name = "tomcat"
let threads = 2

(* {1 Output} *)

let metrics : (string * float) list ref = ref []
let put name v = metrics := (name, v) :: !metrics
(* A quantile the sample count does not support is left out: a missing
   end-to-end metric fails the run, a missing per-layer one reads 0. *)
let put_opt name v = Option.iter (put name) v

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0.0"

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    metrics
    |> List.map (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted (max 0 failed) (String.concat ", " ms)

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* {1 Shared pieces} *)

type args = {
  seed : int;
  seconds : float;
  traced : bool;
  cli : string;
  rundir : string;
}

let profile () =
  match P.Profile.find profile_name with
  | Some p -> p
  | None -> failwith ("no profile " ^ profile_name)

let rng seed salt = P.Rng.create (Int64.of_int ((seed * 7919) + salt))
let ms s = s *. 1e3
let us s = s *. 1e6
let now = Unix.gettimeofday

(* The front end's stages timed one by one, as Suite.build runs them. *)
let frontend_ledger () =
  let p = profile () in
  let program = Trace.span "genprog" (fun () -> P.Genprog.generate p) in
  let t0 = now () in
  let callgraph = Trace.span "callgraph" (fun () -> P.Callgraph.build program) in
  let t1 = now () in
  let lowering = Trace.span "lower" (fun () -> P.Lower.lower program callgraph) in
  let t2 = now () in
  put "lang.callgraph_ms" (ms (t1 -. t0));
  put "lang.lower_ms" (ms (t2 -. t1));
  put "workload.genprog_ms" (Trace.total_us "genprog" /. 1e3);
  let pag = lowering.P.Lower.pag in
  put "pag.nodes" (float_of_int (P.Pag.n_nodes pag));
  put "pag.edges" (float_of_int (P.Pag.n_edges pag))

(* The metric names and units of the run's kind, from BENCHMARK.json at the
   root of the checkout. A per-layer metric whose layer did no work on the
   workload reads 0; a missing end-to-end metric is an error. *)
let finalize ~traced =
  let spec =
    match P.Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let str k j = match P.Json.member k j with Some (P.Json.String s) -> s | _ -> failwith ("BENCHMARK.json: no " ^ k) in
  let wanted =
    match P.Json.member (if traced then "per_layer" else "end_to_end") spec with
    | Some (P.Json.List l) -> List.map (fun m -> (str "name" m, str "unit" m)) l
    | _ -> failwith "BENCHMARK.json: no metric list"
  in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name !metrics with
      | Some v -> (name, v, unit)
      | None when traced -> (name, 0.0, unit)
      | None -> failwith ("no value for " ^ name))
    wanted

(* {1 batch-dq} *)

let slo_pass_us = 1e6

let batch_dq a =
  let p = profile () in
  (* Set-up in fresh processes, so every sample starts from a cold heap
     and none of them shows in this process's peak RSS: a few before the
     passes and one after every [setup_every]-th pass, so that the samples
     spread over the run. *)
  let setup_every = 10 in
  let setup_samples = ref [] in
  let setup_sample () =
    (* a spawned process: once domains exist this one may not fork *)
    let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--setup-sample" |] in
    let line = In_channel.input_all ic in
    match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
    | Unix.WEXITED 0, Some s -> setup_samples := s :: !setup_samples
    | _ -> failwith "set-up sample failed"
  in
  for _ = 1 to 3 do
    setup_sample ()
  done;
  let suite = Trace.span "suite.build" (fun () -> P.Suite.build p) in
  let pag = suite.P.Suite.pag in
  let t_plan = now () in
  let plan =
    Trace.span "schedule.prepare" (fun () ->
        P.Schedule.prepare ~pag ~type_level:suite.P.Suite.type_level)
  in
  let prepare_ms = ms (now () -. t_plan) in
  let reference, seq_wall =
    Trace.span "reference" (fun () -> Proc.in_child (fun () -> Check.seq_reference suite))
  in
  let queries = Array.copy suite.P.Suite.queries in
  P.Rng.shuffle (rng a.seed 1) queries;
  let solver_config = Check.solver_config ~context_sensitive:true in
  let tally = Stat.tally () in
  let pass ~spans =
    Trace.enabled := spans;
    let store =
      P.Jmp_store.create ~tau_f:P.Profile.default_tau_f ~tau_u:P.Profile.default_tau_u ()
    in
    let ctx_store = P.Ctx.create_store () in
    (* every pass starts from a collected heap, so that no pass pays for
       the garbage of the one before *)
    Gc.full_major ();
    let t0 = now () in
    let report =
      Trace.span "runner.run" (fun () ->
          P.Runner.run ~tau_f:P.Profile.default_tau_f ~tau_u:P.Profile.default_tau_u
            ~sched_plan:plan ~store ~ctx_store ~type_level:suite.P.Suite.type_level
            ~solver_config ~mode:P.Mode.Share_sched ~threads ~queries pag)
    in
    let wall = now () -. t0 in
    Trace.span "check" (fun () ->
        Check.judge_batch reference pag report tally ~slo_us:slo_pass_us ~latency_us:(us wall));
    (* the pass's ledger; the report and store are dropped here so that
       no pass keeps the previous ones alive *)
    let i = float_of_int in
    let hits = P.Jmp_store.n_hits store and misses = P.Jmp_store.n_misses store in
    [
      ("par.pass_ms", ms wall);
      ("sched.groups", i (Array.length report.P.Report.r_group_sizes));
      ("sched.mean_group_size", report.P.Report.r_mean_group_size);
      ("cfl.steps_walked", i (P.Report.total_walked report));
      ("cfl.steps_per_query", i (P.Report.total_walked report) /. i (Array.length queries));
      ("cfl.resolved", i (P.Report.n_completed report));
      ("sharing.jmp_finished", i report.P.Report.r_n_jumps_finished);
      ("sharing.jmp_unfinished", i report.P.Report.r_n_jumps_unfinished);
      ("sharing.early_terminations", i (P.Report.n_early_terminations report));
      ("sharing.hit_ratio", Stat.frac hits (hits + misses));
      ( "par.worker_util",
        Array.fold_left ( +. ) 0.0 report.P.Report.r_worker_busy_us /. (i threads *. us wall) );
      ("par.minor_mwords", i (P.Report.total_minor_words report) /. 1e6);
    ]
  in
  let run_passes ~seconds ~min_passes ~spans =
    let t_end = now () +. seconds in
    let rec go acc n =
      if n >= min_passes && now () >= t_end then List.rev acc
      else begin
        let l = pass ~spans:(spans n) in
        if n mod setup_every = setup_every - 1 then setup_sample ();
        go ((n, l) :: acc) (n + 1)
      end
    in
    go [] 0
  in
  let walls rs = List.map (fun l -> List.assoc "par.pass_ms" l *. 1e3) rs in
  (* A traced run alternates passes with spans off and on; the difference
     of their medians is the tracing overhead. *)
  let passes, traced_passes =
    let all =
      if a.traced then run_passes ~seconds:a.seconds ~min_passes:40 ~spans:(fun n -> n mod 2 = 1)
      else run_passes ~seconds:a.seconds ~min_passes:100 ~spans:(fun _ -> false)
    in
    Trace.enabled := a.traced;
    let off, on = List.partition (fun (n, _) -> (not a.traced) || n mod 2 = 0) all in
    (List.map snd off, List.map snd on)
  in
  let p50 = Stat.quantile (walls passes) 0.5 in
  put_opt "setup_s" (Stat.median !setup_samples);
  put_opt "batch_qps"
    (Option.map (fun w -> float_of_int (Array.length queries) /. (w /. 1e6)) p50);
  put_opt "latency_p50_us" p50;
  put_opt "latency_p90_us" (Stat.quantile (walls passes) 0.9);
  put "slo_frac" (Stat.slo_frac tally);
  put "ok_frac" (Stat.ok_frac tally);
  put "resolved_frac" (Stat.resolved_frac tally);
  put_opt "peak_rss_mb" (Proc.vmhwm_mb (Unix.getpid ()));
  if a.traced then begin
    frontend_ledger ();
    put "sched.prepare_ms" prepare_ms;
    (* each ledger entry is the median over the traced passes *)
    List.iter
      (fun (name, _) ->
        put_opt name
          (Stat.median (List.map (List.assoc name) traced_passes)))
      (List.hd traced_passes);
    let pass_ms = Option.value (Stat.median (List.map (List.assoc "par.pass_ms") traced_passes)) ~default:0.0 in
    put "par.seq_pass_ms" (ms seq_wall);
    put "par.speedup_vs_seq" (if pass_ms > 0.0 then ms seq_wall /. pass_ms else 0.0);
    (match (Stat.median (walls passes), Stat.median (walls traced_passes)) with
    | Some u, Some t -> put "trace.overhead_frac" ((t -. u) /. u)
    | _ -> ());
    put "failed_frac" (Stat.failed_frac tally)
  end;
  [ tally ]

(* {1 Talking to servers} *)

(* Polls [path] with [line] until the reply is a correct answer for [var]. *)
let wait_correct ~deadline pag reference path ~var =
  let line = query_line ~id:1 var in
  let rec go () =
    if now () > deadline then failwith ("no correct answer from " ^ path)
    else
      match Wire.request_once ~timeout:5.0 path line with
      | Ok reply when fst (judge_reply pag reference (Plain var) reply) = Stat.Resolved -> ()
      | _ ->
          Proc.sleep 0.002;
          go ()
  in
  go ()

let connect_all path n =
  Array.init n (fun _ ->
      match Wire.connect path with Ok c -> c | Error e -> failwith (path ^ ": " ^ e))

(* Sends every application query as one windowed burst; queries decided
   per second of the burst. *)
let burst ~conns pag reference tally (queries : int array) =
  let reqs =
    Array.mapi
      (fun i v -> Wire.make_req ~id:(100_000 + i) ~conn:(i mod Array.length conns) (query_line ~id:(100_000 + i) v))
      queries
  in
  let t0 = now () in
  Wire.run ~policy:(Wire.Window 64) ~conns ~deadline:(t0 +. 60.0) reqs;
  let t_last = Array.fold_left (fun m (r : Wire.req) -> Float.max m r.recv) t0 reqs in
  Array.iteri
    (fun i (r : Wire.req) ->
      let fate =
        match r.reply with
        | Some l -> fst (judge_reply pag reference (Plain queries.(i)) l)
        | None -> if conns.(r.conn).Wire.dead then Stat.Dead else Stat.Unanswered
      in
      Stat.record tally ~slo_us:infinity fate)
    reqs;
  float_of_int (Array.length queries) /. Float.max 1e-6 (t_last -. t0)

type served = {
  kinds : kind array;
  reqs : Wire.req array;
  fates : Stat.fate array;
  resps : P.Svc_protocol.response option array;
}

let concat (ss : served list) =
  {
    kinds = Array.concat (List.map (fun s -> s.kinds) ss);
    reqs = Array.concat (List.map (fun s -> s.reqs) ss);
    fates = Array.concat (List.map (fun s -> s.fates) ss);
    resps = Array.concat (List.map (fun s -> s.resps) ss);
  }

(* The open loop: request i is due at [t0 + i / rate]. Lowest-priority
   spinners keep the cores awake meanwhile (see {!Proc.spinners}). *)
let open_loop ~conns ~rate ~base pag reference (kinds : kind array) =
  let t0 = now () +. 0.01 in
  let reqs =
    Array.mapi
      (fun i k ->
        let id = base + i in
        let line =
          match k with
          | Plain v -> query_line ~id v
          | Refined v -> query_line ~budget:P.Profile.default_budget ~id v
          | Explain (v, o) -> Check.explain_line ~id v o
        in
        let r = Wire.make_req ~id ~conn:(i mod Array.length conns) line in
        r.Wire.due <- t0 +. (float_of_int i /. rate);
        r)
      kinds
  in
  let last_due = if reqs = [||] then t0 else reqs.(Array.length reqs - 1).Wire.due in
  let spin = Proc.spinners (Domain.recommended_domain_count ()) in
  Fun.protect ~finally:(fun () -> Proc.stop_spinners spin) (fun () ->
      Wire.run ~policy:Wire.Open_loop ~conns ~deadline:(last_due +. 10.0) reqs);
  let judged =
    Array.mapi
      (fun i (r : Wire.req) ->
        match r.reply with
        | Some l -> judge_reply pag reference kinds.(i) l
        | None -> ((if conns.(r.conn).Wire.dead then Stat.Dead else Stat.Unanswered), None))
      reqs
  in
  { kinds; reqs; fates = Array.map fst judged; resps = Array.map snd judged }

let latency_us (r : Wire.req) = us (r.recv -. r.due)

let account tally ~slo_us s =
  Array.iteri
    (fun i fate ->
      let r = s.reqs.(i) in
      let latency_us = if r.Wire.reply = None then None else Some (latency_us r) in
      Stat.record tally ?latency_us ~slo_us fate)
    s.fates

let lat_of pred s =
  List.filter_map Fun.id
    (Array.to_list (Array.mapi (fun i k -> if pred k then Some (latency_us s.reqs.(i)) else None) s.kinds))

let plain_lat = lat_of (function Plain _ -> true | _ -> false)
let refined_lat = lat_of (function Refined _ -> true | _ -> false)
let explain_lat = lat_of (function Explain _ -> true | _ -> false)

(* Generator lag bound on p99 (or the highest quantile the segment's sample
   count supports): a segment whose sends slipped further is invalid, not
   slow, and is measured again on a fresh server, up to three times in all.
   The ledger's gen.lag_us.* show how late the kept segments ran. *)
let max_lag_p99_us = 5_000.0

let lags s = Array.to_list (Array.map (fun (r : Wire.req) -> us (r.sent -. r.due)) s.reqs)

let lag_ok s = match Stat.tail (lags s) with Some p -> p <= max_lag_p99_us | None -> false

let stats_of path =
  match Wire.request_once ~timeout:10.0 path "stats 7" with
  | Ok l -> (
      match P.Svc_protocol.response_of_string l with
      | Ok (P.Svc_protocol.Stats_reply { stats; _ }) -> stats
      | _ -> P.Json.Null)
  | Error _ -> P.Json.Null

(* A counter from a [stats] reply; a cluster router's reply sums its
   replicas' counters under "totals". *)
let rec num k j =
  match P.Json.member k j with
  | Some (P.Json.Int i) -> float_of_int i
  | Some (P.Json.Float f) -> f
  | _ -> ( match P.Json.member "totals" j with Some t -> num k t | None -> 0.0)

(* {2 Workload-independent serving harness} *)

(* How to start one fresh server (or cluster) and tear it down. [spawn]
   returns the process, its set-up time (to a correct answer from every
   replica) and the time until it first answered [ping]. *)
type server = {
  sock : string;
  spawn : unit -> Proc.t * float * float;
  stop : Proc.t -> unit;
  rss_mb : Proc.t -> float;
}

type segment = {
  served : served;
  stats : P.Json.t;
  rss : float;
  traced : bool;
  direct : served option;  (** the plain queries re-sent past the router *)
}

type results = {
  segments : segment list;
  setups : float list;
  lives : float list;
  qps : float list;
  loop_tally : Stat.tally;
  burst_tally : Stat.tally;
}

(* Splits the mix into [segments] open loops, each on a fresh server, with
   [burst_servers] fresh servers before, between and after them taking the
   whole query set as capacity bursts, so the set-up and capacity samples
   spread over the whole run. A traced run doubles the segments and
   alternates spans off and on. [direct] re-sends a segment's plain
   queries past the router, for the hop cost. *)
let serve_segments (a : args) ~server ~rate ~slo_us ~segments ~burst_servers ~bursts_per_server ?direct
    pag reference queries (kinds : kind array) =
  let k = if a.traced then 2 * segments else segments in
  let len = Array.length kinds / k in
  let loop_tally = Stat.tally () and burst_tally = Stat.tally () in
  let setups = ref [] and lives = ref [] and qps = ref [] in
  let started () =
    let ((_, setup, live) as r) = server.spawn () in
    setups := setup :: !setups;
    lives := live :: !lives;
    r
  in
  let segment i =
    let traced = a.traced && i mod 2 = 1 in
    Trace.enabled := traced;
    let seg_kinds = Array.sub kinds (i * len) len in
    let rec attempt n =
      let proc, _, _ = started () in
      let seg =
        Fun.protect ~finally:(fun () -> server.stop proc) (fun () ->
            let conns = connect_all server.sock threads in
            let served =
              Trace.span "open_loop" (fun () ->
                  open_loop ~conns ~rate ~base:(1_000_000 * (i + 1)) pag reference seg_kinds)
            in
            Array.iter Wire.close conns;
            let direct =
              match direct with
              | Some path when traced ->
                  let plain = Array.of_list (List.filter (function Plain _ -> true | _ -> false) (Array.to_list seg_kinds)) in
                  let conns = connect_all path threads in
                  let d =
                    Trace.span "direct" (fun () ->
                        open_loop ~conns ~rate ~base:(1_000_000 * (i + 1) + 500_000) pag reference plain)
                  in
                  Array.iter Wire.close conns;
                  Some d
              | _ -> None
            in
            let stats = stats_of server.sock in
            { served; stats; rss = server.rss_mb proc; traced; direct })
      in
      if lag_ok seg.served || n >= 2 then seg
      else begin
        log "segment %d: generator ran over %.0f us late, measuring it again" i max_lag_p99_us;
        attempt (n + 1)
      end
    in
    let seg = attempt 0 in
    (* a host that stalls the generator three times running is reported,
       not counted against the program *)
    if not (lag_ok seg.served) then log "segment %d: generator still late; keeping its figures" i;
    account loop_tally ~slo_us seg.served;
    Option.iter (account loop_tally ~slo_us) seg.direct;
    seg
  in
  let bursts () =
    for _ = 1 to burst_servers do
      let proc, _, _ = started () in
      Fun.protect ~finally:(fun () -> server.stop proc) (fun () ->
          let conns = connect_all server.sock threads in
          for _ = 1 to bursts_per_server do
            qps := Trace.span "burst" (fun () -> burst ~conns pag reference burst_tally queries) :: !qps
          done;
          Array.iter Wire.close conns)
    done
  in
  bursts ();
  let segments =
    List.init k (fun i ->
        let g = segment i in
        bursts ();
        g)
  in
  Trace.enabled := a.traced;
  { segments; setups = !setups; lives = !lives; qps = !qps; loop_tally; burst_tally }

let end_to_end r =
  let plain = List.concat_map (fun g -> if g.traced then [] else plain_lat g.served) r.segments in
  let all = Stat.merge r.loop_tally r.burst_tally in
  put_opt "setup_s" (Stat.median r.setups);
  put_opt "batch_qps" (Stat.median r.qps);
  put_opt "latency_p50_us" (Stat.quantile plain 0.5);
  put_opt "latency_p90_us" (Stat.quantile plain 0.9);
  put "slo_frac" (Stat.slo_frac r.loop_tally);
  put "ok_frac" (Stat.ok_frac all);
  put "resolved_frac" (Stat.resolved_frac all);
  put_opt "peak_rss_mb" (Stat.median (List.map (fun g -> g.rss) r.segments))

(* Spans of each request of a traced segment: the generator's lag, the
   round trip, and inside it the server's own stages from the reply. *)
let request_spans s =
  Array.iteri
    (fun i (r : Wire.req) ->
      if r.Wire.reply <> None then begin
        let rid = r.Wire.id in
        let root = Trace.add ~rid "request" ~start_us:(us r.Wire.due) ~end_us:(us r.Wire.recv) in
        ignore (Trace.add ~parent:root ~rid "gen.lag" ~start_us:(us r.Wire.due) ~end_us:(us r.Wire.sent));
        let wire = Trace.add ~parent:root ~rid "wire" ~start_us:(us r.Wire.sent) ~end_us:(us r.Wire.recv) in
        match s.resps.(i) with
        | Some (P.Svc_protocol.Answer { breakdown = b; cached = false; _ }) ->
            let t = ref (us r.Wire.sent) in
            List.iter
              (fun (name, d) ->
                ignore (Trace.add ~parent:wire ~rid name ~start_us:!t ~end_us:(!t +. d));
                t := !t +. d)
              [
                ("svc.queue", b.P.Svc_span.bd_queue_wait_us);
                ("svc.batch", b.P.Svc_span.bd_batch_wait_us);
                ("svc.solve", b.P.Svc_span.bd_solve_us);
                ("svc.respond", b.P.Svc_span.bd_respond_us);
              ]
        | _ -> ()
      end)
    s.reqs

(* Per-layer ledger of a traced serving run, from its traced segments: the
   per-answer breakdown on the wire, the servers' own counters (median
   over segments), the client's view, and the overhead of tracing. *)
let serve_ledger r =
  let traced = List.filter (fun g -> g.traced) r.segments in
  let s = concat (List.map (fun g -> g.served) traced) in
  let stat name = Stat.median (List.map (fun g -> num name g.stats) traced) in
  (* replies that went through admission and the batcher: not cache hits,
     not the oracle tier (whose stamps all collapse to zero) *)
  let batched b = b.P.Svc_span.bd_queue_wait_us +. b.P.Svc_span.bd_batch_wait_us > 0.0 in
  let answers =
    Array.to_list s.resps
    |> List.mapi (fun i r -> (s.reqs.(i), r))
    |> List.filter_map (function
         | req, Some (P.Svc_protocol.Answer { cached = false; latency_us; breakdown = b; steps; _ })
           when batched b ->
             Some (req, latency_us, b, steps)
         | req, Some (P.Svc_protocol.Timeout { cached = false; latency_us; breakdown = b; _ })
           when batched b ->
             Some (req, latency_us, b, 0)
         | _ -> None)
  in
  let bd f = List.map (fun (_, _, b, _) -> f b) answers in
  let q name f p = put_opt name (Stat.quantile (bd f) p) in
  q "svc.queue_wait_us.p50" (fun b -> b.P.Svc_span.bd_queue_wait_us) 0.5;
  q "svc.queue_wait_us.p90" (fun b -> b.P.Svc_span.bd_queue_wait_us) 0.9;
  q "svc.batch_wait_us.p50" (fun b -> b.P.Svc_span.bd_batch_wait_us) 0.5;
  q "svc.solve_us.p50" (fun b -> b.P.Svc_span.bd_solve_us) 0.5;
  q "svc.solve_us.p90" (fun b -> b.P.Svc_span.bd_solve_us) 0.9;
  q "svc.respond_us.p50" (fun b -> b.P.Svc_span.bd_respond_us) 0.5;
  put_opt "svc.residual_us.p50"
    (Stat.quantile (List.map (fun ((r : Wire.req), l, _, _) -> us (r.recv -. r.sent) -. l) answers) 0.5);
  let steps = List.fold_left (fun acc (_, _, _, st) -> acc + st) 0 answers in
  put "cfl.steps_walked" (float_of_int steps);
  put "cfl.steps_per_query" (Stat.frac steps (List.length answers));
  let from_stats name key = put_opt name (stat key) in
  from_stats "cfl.resolved" "completed";
  from_stats "svc.cache_hit_ratio" "cache_hit_rate";
  from_stats "svc.mean_batch_size" "mean_batch_size";
  from_stats "svc.coalesced" "coalesced";
  from_stats "svc.flushes_window" "flushes_window";
  from_stats "svc.flushes_full" "flushes_full";
  from_stats "sched.groups" "sched_groups";
  from_stats "sharing.jmp_finished" "jmp_finished";
  from_stats "sharing.jmp_unfinished" "jmp_unfinished";
  from_stats "sharing.early_terminations" "early_terminations";
  put_opt "sharing.hit_ratio"
    (Stat.median
       (List.map
          (fun g ->
            let h = num "jmp_hits" g.stats and m = num "jmp_misses" g.stats in
            if h +. m > 0.0 then h /. (h +. m) else 0.0)
          traced));
  let oh = num "oracle_hits" and om = num "oracle_misses" in
  put_opt "oracle.hit_ratio"
    (Stat.median
       (List.map (fun g -> let h = oh g.stats and m = om g.stats in if h +. m > 0.0 then h /. (h +. m) else 0.0) traced));
  (* the server's parse and render, timed in-process over this run's lines *)
  let lines = Array.map (fun (r : Wire.req) -> r.Wire.line) s.reqs in
  let resps = List.filter_map Fun.id (Array.to_list s.resps) in
  let t0 = now () in
  Array.iter (fun l -> ignore (P.Svc_protocol.parse_request l)) lines;
  let t1 = now () in
  List.iter (fun r -> ignore (P.Svc_protocol.response_to_string r)) resps;
  let t2 = now () in
  put "svc.parse_ns" ((t1 -. t0) *. 1e9 /. float_of_int (max 1 (Array.length lines)));
  put "svc.render_ns" ((t2 -. t1) *. 1e9 /. float_of_int (max 1 (List.length resps)));
  (* the client's view *)
  let lag = List.concat_map (fun g -> lags g.served) r.segments in
  put_opt "gen.lag_us.p99" (Stat.quantile lag 0.99);
  put "gen.lag_us.max" (List.fold_left Float.max 0.0 lag);
  put_opt "client.latency_p99_us" (Stat.quantile (plain_lat s) 0.99);
  put_opt "client.refined_p50_us" (Stat.quantile (refined_lat s) 0.5);
  put_opt "client.explain_p50_us" (Stat.quantile (explain_lat s) 0.5);
  let explains =
    Array.to_list s.resps
    |> List.filter_map (function
         | Some (P.Svc_protocol.Explain_reply { latency_us; depth; found = true; _ }) ->
             Some (latency_us, float_of_int depth)
         | _ -> None)
  in
  put_opt "cfl.explain_us.p50" (Stat.quantile (List.map fst explains) 0.5);
  put_opt "cfl.explain_depth.mean" (Stat.mean (List.map snd explains));
  let hop g =
    Option.bind g.direct (fun d ->
        Option.bind (Stat.quantile (plain_lat g.served) 0.5) (fun routed ->
            Option.map (fun direct -> routed -. direct) (Stat.quantile (plain_lat d) 0.5)))
  in
  put_opt "cluster.hop_us.p50" (Stat.median (List.filter_map hop traced));
  let p50 tr =
    Stat.quantile (List.concat_map (fun g -> if g.traced = tr then plain_lat g.served else []) r.segments) 0.5
  in
  (match (p50 false, p50 true) with
  | Some u, Some t -> put "trace.overhead_frac" ((t -. u) /. u)
  | _ -> ());
  put "failed_frac" (Stat.failed_frac (Stat.merge r.loop_tally r.burst_tally));
  request_spans s

let ready_var (reference : Check.reference) (queries : int array) =
  match
    Array.find_opt
      (fun v -> match reference.(v) with Some (Check.Objs (_ :: _)) -> true | _ -> false)
      queries
  with
  | Some v -> v
  | None -> failwith "no resolvable query"

let front_and_plan_ledger (suite : P.Suite.t) =
  frontend_ledger ();
  let t0 = now () in
  ignore
    (Trace.span "schedule.prepare" (fun () ->
         P.Schedule.prepare ~pag:suite.P.Suite.pag ~type_level:suite.P.Suite.type_level));
  put "sched.prepare_ms" (ms (now () -. t0))

(* {1 serve-cs} *)

let serve_rate = 400.0
let serve_slo_us = 25_000.0

let serve_cs a =
  let suite = P.Suite.build (profile ()) in
  let pag = suite.P.Suite.pag in
  let queries = suite.P.Suite.queries in
  let reference, seq_wall = Proc.in_child (fun () -> Check.seq_reference suite) in
  let rv = ready_var reference queries in
  let sock = Filename.concat a.rundir "s" in
  let spawn () =
    (try Sys.remove sock with Sys_error _ -> ());
    let t0 = now () in
    let proc =
      Trace.span "spawn" (fun () ->
          Proc.spawn ~cwd:a.rundir ~log:"serve.log"
            [| a.cli; "serve"; "-b"; profile_name; "-t"; string_of_int threads; "--socket"; "s" |])
    in
    Trace.span "ready" (fun () -> wait_correct ~deadline:(t0 +. 60.0) pag reference sock ~var:rv);
    let setup = now () -. t0 in
    (proc, setup, setup)
  in
  let server =
    {
      sock;
      spawn;
      stop =
        (fun proc ->
          Wire.quit sock;
          Proc.stop proc);
      rss_mb = (fun proc -> Option.value (Proc.vmhwm_mb proc.Proc.pid) ~default:0.0);
    }
  in
  let n = int_of_float (serve_rate *. a.seconds) in
  let kinds = Array.map (fun v -> Plain v) (P.Suite.query_mix ~seed:a.seed ~hot_share:0.75 suite ~n) in
  (* Four open loops, each on a fresh server, so that no one server's
     placement on the cores sets the figures, yet each long enough for its
     cache to warm as it would in service; a fresh server per burst, since
     a second burst would be all cache hits. *)
  let r =
    serve_segments a ~server ~rate:serve_rate ~slo_us:serve_slo_us ~segments:4 ~burst_servers:2 ~bursts_per_server:1
      pag reference queries kinds
  in
  end_to_end r;
  if a.traced then begin
    front_and_plan_ledger suite;
    put "par.seq_pass_ms" (ms seq_wall);
    serve_ledger r
  end;
  [ r.loop_tally; r.burst_tally ]

(* {1 routed-ci} *)

let routed_rate = 400.0
let routed_slo_us = 25_000.0
let n_explain_pairs = 120

(* The reference relation plus (var, obj) pairs whose witness the CI engine
   re-derives within its budget. *)
let routed_reference (suite : P.Suite.t) =
  let pag = suite.P.Suite.pag in
  let queries = suite.P.Suite.queries in
  let reference = Check.andersen_reference pag queries in
  let a = P.Andersen.solve pag in
  let session =
    P.Solver.make_session ~config:(Check.solver_config ~context_sensitive:false)
      ~ctx_store:(P.Ctx.create_store ()) pag
  in
  let pairs = ref [] and found = ref 0 in
  let stride = max 1 (Array.length queries / (4 * n_explain_pairs)) in
  Array.iteri
    (fun i v ->
      if i mod stride = 0 && !found < n_explain_pairs then
        match P.Andersen.points_to_list a v with
        | [] -> ()
        | objs ->
            let o = List.nth objs (i mod List.length objs) in
            if P.Solver.explain session v o <> None then begin
              pairs := (v, o) :: !pairs;
              incr found
            end)
    queries;
  (reference, Array.of_list (List.rev !pairs))

let routed_ci a =
  let suite = P.Suite.build (profile ()) in
  let pag = suite.P.Suite.pag in
  let queries = suite.P.Suite.queries in
  let reference, pairs = Proc.in_child (fun () -> routed_reference suite) in
  if pairs = [||] then failwith "no explainable pairs";
  let rv = ready_var reference queries in
  let sock = Filename.concat a.rundir "c" in
  let replica i = Printf.sprintf "%s.r%d" sock i in
  let spawn () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ sock; replica 0; replica 1 ];
    let t0 = now () in
    let proc =
      Trace.span "spawn" (fun () ->
          Proc.spawn ~cwd:a.rundir ~log:"cluster.log"
            [| a.cli; "cluster"; "-b"; profile_name; "-r"; "2"; "-t"; "1"; "--insensitive";
               "--oracle"; "--socket"; "c" |])
    in
    let deadline = t0 +. 60.0 in
    (* the router answers ping before its replicas are ready: liveness is
       not readiness, which takes a correct answer from the router and
       from each replica *)
    let rec ping () =
      match Wire.request_once ~timeout:5.0 sock "ping 1" with
      | Ok _ -> ()
      | Error _ when now () < deadline ->
          Proc.sleep 0.002;
          ping ()
      | Error e -> failwith ("router never answered ping: " ^ e)
    in
    ping ();
    let live = now () -. t0 in
    Trace.span "ready" (fun () ->
        List.iter (fun p -> wait_correct ~deadline pag reference p ~var:rv) [ sock; replica 0; replica 1 ]);
    (proc, now () -. t0, live)
  in
  let replica_pids proc =
    String.split_on_char '\n' (Proc.read_log proc)
    |> List.filter_map (fun l -> Scanf.sscanf_opt l "replica %d socket=%s pid=%d" (fun _ _ pid -> pid))
  in
  let server =
    {
      sock;
      spawn;
      stop =
        (fun proc ->
          let members = replica_pids proc in
          Wire.quit sock;
          Proc.stop ~members proc);
      (* router and replicas together *)
      rss_mb =
        (fun proc ->
          List.fold_left
            (fun acc pid -> acc +. Option.value (Proc.vmhwm_mb pid) ~default:0.0)
            0.0
            (proc.Proc.pid :: replica_pids proc));
    }
  in
  let n = int_of_float (routed_rate *. a.seconds) in
  let g = rng a.seed 2 in
  let kinds =
    Array.map
      (fun v ->
        let x = P.Rng.float g 1.0 in
        if x < 0.90 then Plain v
        else if x < 0.95 then Refined queries.(P.Rng.int g (Array.length queries))
        else
          let v, o = pairs.(P.Rng.int g (Array.length pairs)) in
          Explain (v, o))
      (P.Suite.query_mix ~seed:a.seed ~hot_share:0.75 suite ~n)
  in
  (* plain queries never reach the cache behind the oracle tier, so one
     cluster can take several bursts *)
  let r =
    serve_segments a ~server ~rate:routed_rate ~slo_us:routed_slo_us ~segments:3 ~burst_servers:1 ~bursts_per_server:2
      ~direct:(replica 0) pag reference queries kinds
  in
  end_to_end r;
  if a.traced then begin
    front_and_plan_ledger suite;
    let t0 = now () in
    let k = Trace.span "kernel.solve" (fun () -> P.Matrix.solve pag) in
    put "matrix.solve_ms" (ms (now () -. t0));
    put "matrix.rounds" (float_of_int (P.Matrix.rounds k));
    let t0 = now () in
    let o = Trace.span "oracle.build" (fun () -> P.Oracle.build ~generation:0 pag) in
    put "oracle.build_ms" (ms (now () -. t0));
    let reps = 50 in
    let t0 = now () in
    for _ = 1 to reps do
      Array.iter (fun v -> ignore (P.Oracle.points_to o v)) queries
    done;
    put "oracle.lookup_ns" ((now () -. t0) *. 1e9 /. float_of_int (reps * Array.length queries));
    put "oracle.distinct_rows" (float_of_int (P.Oracle.distinct_rows o));
    put "oracle.bytes" (float_of_int (P.Oracle.compressed_bytes o));
    put_opt "cluster.ready_s" (Stat.median r.lives);
    serve_ledger r
  end;
  [ r.loop_tally; r.burst_tally ]

(* {1 Main} *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let usage () =
  prerr_endline
    "usage: bench.exe --workload batch-dq|serve-cs|routed-ci --seed N --seconds S --trace 0|1 \
     --cli PATH [--rundir DIR] [--commit C] | --self-test | --setup-sample";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* killed from outside, take the servers down too; spinners notice their
     parent is gone and exit on their own *)
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             Proc.stop_all ();
             exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  let argv = Array.to_list Sys.argv |> List.tl in
  if argv = [ "--self-test" ] then exit (Selftest.run ())
  else if argv = [ "--setup-sample" ] then begin
    (* batch-dq's set-up, timed in a fresh process *)
    let t0 = now () in
    let s = P.Suite.build (profile ()) in
    ignore (P.Schedule.prepare ~pag:s.P.Suite.pag ~type_level:s.P.Suite.type_level);
    Printf.printf "%.9f\n" (now () -. t0)
  end
  else begin
    let rec kv acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> kv ((k, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = kv [] argv in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let workload = get "--workload" in
    let seed = match int_of_string_opt (get "--seed") with Some s -> s | None -> usage () in
    let seconds = match float_of_string_opt (get "--seconds") with Some s when s > 0.0 -> s | _ -> usage () in
    let traced = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
    let cli = get "--cli" in
    let commit = Option.value (List.assoc_opt "--commit" opts) ~default:"unknown" in
    let root = Option.value (List.assoc_opt "--rundir" opts) ~default:".bench_run" in
    let run =
      match workload with
      | "batch-dq" -> batch_dq
      | "serve-cs" -> serve_cs
      | "routed-ci" -> routed_ci
      | w ->
          log "unknown workload %S" w;
          exit 2
    in
    (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let rundir = Filename.concat root (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
    Unix.mkdir rundir 0o755;
    at_exit (fun () -> rm_rf rundir);
    Trace.enabled := traced;
    let outcome =
      match run { seed; seconds; traced; cli; rundir } with
      | tallies -> Ok (tallies, finalize ~traced)
      | exception e -> Error (Printexc.to_string e)
    in
    Proc.stop_all ();
    match outcome with
    | Error e ->
        log "%s: %s" workload e;
        exit 1
    | Ok (tallies, metrics) ->
        if traced then begin
          let path = Filename.concat root (Printf.sprintf "trace-%s-%d.json" workload seed) in
          Trace.write_chrome path;
          log "%d spans -> %s" (Trace.count ()) path
        end;
        let sum f = List.fold_left (fun n t -> n + f t) 0 tallies in
        let failed = sum (fun t -> t.Stat.failed) in
        List.iter
          (fun (t : Stat.tally) -> Option.iter (fun f -> log "first failure: %s" f) t.Stat.first_failure)
          tallies;
        Printf.printf
          "{\"meta\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"nproc\": %d, \"ocaml\": %S, \"commit\": %S}}\n"
          workload seed seconds traced (Domain.recommended_domain_count ()) Sys.ocaml_version commit;
        print_result ~correct:(failed = 0) ~attempted:(sum (fun t -> t.Stat.sent)) ~failed metrics
  end

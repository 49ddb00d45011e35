(* parcfl — command-line driver.

   Subcommands:
     info                    list the built-in benchmarks and their sizes
     run                     analyse one benchmark in a given configuration
     query                   answer points-to queries for named variables
     oracle                  cross-check CFL(context-insensitive) vs Andersen
     serve                   persistent analysis service (stdio / Unix socket)
     cluster                 N serve replicas behind a shard-affine router
     load                    load-generate against a running serve socket
     dot                     dump a benchmark's PAG as Graphviz *)

open Cmdliner
module P = Parcfl

let bench_arg =
  let doc = "Benchmark name (see `parcfl info`)." in
  Arg.(value & opt string "h2" & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let mode_arg =
  let parse s = P.Mode.of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf m = P.Mode.pp ppf m in
  let mode_conv = Arg.conv (parse, print) in
  let doc = "Execution mode: seq, naive, d (sharing) or dq (+scheduling)." in
  Arg.(
    value
    & opt mode_conv P.Mode.Share_sched
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let threads_arg =
  let doc = "Number of threads (domains, or virtual cores with --sim)." in
  Arg.(value & opt int 4 & info [ "t"; "threads" ] ~docv:"N" ~doc)

let budget_arg =
  let doc = "Per-query traversal budget B." in
  Arg.(value & opt int P.Profile.default_budget & info [ "budget" ] ~docv:"B" ~doc)

let sim_arg =
  let doc =
    "Use the deterministic multicore simulator instead of real domains \
     (reports the simulated makespan)."
  in
  Arg.(value & flag & info [ "sim" ] ~doc)

let trace_out_arg =
  let doc =
    "Record per-worker solver events (query start/end, jmp hits, early \
     terminations, budget exhaustion) and write them as Chrome \
     trace_event JSON to $(docv) — open in chrome://tracing or Perfetto."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let bench_json_arg =
  let doc =
    "Append the run's machine-readable results (mode, threads, wall clock \
     or makespan, ratio saved, histograms) as a bench-results JSON file \
     at $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "bench-json" ] ~docv:"FILE" ~doc)

let build_bench name =
  match P.Suite.build_by_name name with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %S; try one of: %s" name
           (String.concat ", " P.Profile.names))

let info_cmd =
  let run () =
    List.iter
      (fun p ->
        let b = P.Suite.build p in
        Format.printf "%a@." (fun ppf -> P.Suite.pp_info ppf) b)
      P.Profile.all;
    0
  in
  Cmd.v (Cmd.info "info" ~doc:"List built-in benchmarks and their sizes")
    Term.(const run $ const ())

let run_cmd =
  let run bench mode threads budget sim trace_out bench_json =
    match build_bench bench with
    | Error e ->
        prerr_endline e;
        1
    | Ok b ->
        let solver_config = P.Config.with_budget budget P.Config.default in
        let tracer =
          Option.map
            (fun _ -> P.Tracer.create ~workers:(max 1 threads) ())
            trace_out
        in
        let report =
          if sim then
            P.Runner.simulate ~tau_f:P.Profile.default_tau_f
              ~tau_u:P.Profile.default_tau_u ~type_level:b.P.Suite.type_level
              ~solver_config ?tracer ~mode ~threads
              ~queries:b.P.Suite.queries b.P.Suite.pag
          else
            P.Runner.run ~tau_f:P.Profile.default_tau_f
              ~tau_u:P.Profile.default_tau_u ~type_level:b.P.Suite.type_level
              ~solver_config ?tracer ~mode ~threads
              ~queries:b.P.Suite.queries b.P.Suite.pag
        in
        Format.printf "%a@." (fun ppf -> P.Report.pp_summary ppf) report;
        Format.printf "%a@." (fun ppf -> P.Report.pp_histograms ppf) report;
        let failed = ref false in
        let write what path f =
          try f () with
          | Sys_error msg ->
              Format.eprintf "parcfl: cannot write %s %S: %s@." what path msg;
              failed := true
        in
        (match (trace_out, tracer) with
        | Some path, Some tr ->
            write "trace" path (fun () ->
                P.Tracer.write_chrome ~path tr;
                Format.printf "trace: %d events -> %s%s@."
                  (P.Tracer.n_events tr) path
                  (let d = P.Tracer.n_dropped tr in
                   if d > 0 then Printf.sprintf " (%d oldest dropped)" d
                   else ""))
        | _ -> ());
        Option.iter
          (fun path ->
            write "bench json" path (fun () ->
                P.Bench_json.write ~path
                  ~meta:[ ("budget", P.Json.Int budget) ]
                  [ P.Report.to_json ~bench report ];
                Format.printf "bench json -> %s@." path))
          bench_json;
        if !failed then 1 else 0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Analyse one benchmark in a given configuration")
    Term.(
      const run $ bench_arg $ mode_arg $ threads_arg $ budget_arg $ sim_arg
      $ trace_out_arg $ bench_json_arg)

let query_cmd =
  let vars_arg =
    let doc = "Variable-name substrings to query (all matches)." in
    Arg.(value & pos_all string [] & info [] ~docv:"VAR" ~doc)
  in
  let run bench budget patterns =
    match build_bench bench with
    | Error e ->
        prerr_endline e;
        1
    | Ok b ->
        let pag = b.P.Suite.pag in
        let config = P.Config.with_budget budget P.Config.default in
        let ctx_store = P.Ctx.create_store () in
        let session = P.Solver.make_session ~config ~ctx_store pag in
        let matches v =
          patterns = []
          || List.exists
               (fun pat ->
                 let name = P.Pag.var_name pag v in
                 let len_p = String.length pat and len_n = String.length name in
                 let rec at i =
                   i + len_p <= len_n
                   && (String.sub name i len_p = pat || at (i + 1))
                 in
                 at 0)
               patterns
        in
        let n = ref 0 in
        Array.iter
          (fun v ->
            if matches v && !n < 50 then begin
              incr n;
              let outcome = P.Solver.points_to session v in
              Format.printf "%s -> %a@." (P.Pag.var_name pag v)
                (P.Query.pp_result pag ctx_store)
                outcome.P.Query.result
            end)
          (P.Pag.app_locals pag);
        0
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer points-to queries for application locals matching a name")
    Term.(const run $ bench_arg $ budget_arg $ vars_arg)

let oracle_cmd =
  let run bench =
    match build_bench bench with
    | Error e ->
        prerr_endline e;
        1
    | Ok b ->
        let pag = b.P.Suite.pag in
        let andersen = P.Andersen.solve pag in
        let ctx_store = P.Ctx.create_store () in
        let session =
          P.Solver.make_session ~config:P.Config.oracle ~ctx_store pag
        in
        let mismatches = ref 0 and checked = ref 0 in
        Array.iter
          (fun v ->
            incr checked;
            let cfl =
              P.Query.objects (P.Solver.points_to session v).P.Query.result
              |> List.sort compare
            in
            let and_ = P.Andersen.points_to_list andersen v in
            if cfl <> and_ then begin
              incr mismatches;
              if !mismatches <= 5 then
                Format.printf "MISMATCH %s: cfl=%d objs, andersen=%d objs@."
                  (P.Pag.var_name pag v) (List.length cfl) (List.length and_)
            end)
          (P.Pag.app_locals pag);
        Format.printf "oracle check: %d queries, %d mismatches@." !checked
          !mismatches;
        if !mismatches = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:
         "Cross-check the context-insensitive CFL solver against Andersen's \
          analysis (they must agree exactly)")
    Term.(const run $ bench_arg)

let explain_cmd =
  let var_arg =
    let doc = "Substring of the variable to explain." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VAR" ~doc)
  in
  let run bench budget pattern =
    match build_bench bench with
    | Error e ->
        prerr_endline e;
        1
    | Ok b ->
        let pag = b.P.Suite.pag in
        let config = P.Config.with_budget budget P.Config.default in
        let ctx_store = P.Ctx.create_store () in
        let session = P.Solver.make_session ~config ~ctx_store pag in
        let contains name =
          let lp = String.length pattern and ln = String.length name in
          let rec at i =
            i + lp <= ln && (String.sub name i lp = pattern || at (i + 1))
          in
          at 0
        in
        let found = ref false in
        Array.iter
          (fun v ->
            if (not !found) && contains (P.Pag.var_name pag v) then begin
              found := true;
              let outcome = P.Solver.points_to session v in
              match outcome.P.Query.result with
              | P.Query.Out_of_budget ->
                  Format.printf "%s: out of budget@." (P.Pag.var_name pag v)
              | P.Query.Points_to _ ->
                  let objs = P.Query.objects outcome.P.Query.result in
                  Format.printf "%s points to %d object(s)@."
                    (P.Pag.var_name pag v) (List.length objs);
                  List.iter
                    (fun o ->
                      match P.Solver.explain session v o with
                      | Some w ->
                          Format.printf "  %a@."
                            (P.Solver.Witness.pp pag ctx_store)
                            w
                      | None ->
                          Format.printf "  %s: (no witness within budget)@."
                            (P.Pag.obj_name pag o))
                    objs
            end)
          (P.Pag.app_locals pag);
        if not !found then begin
          Format.printf "no application local matches %S@." pattern;
          1
        end
        else 0
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show witness paths: why does a variable point to each object?")
    Term.(const run $ bench_arg $ budget_arg $ var_arg)

let clients_cmd =
  let run bench budget =
    match build_bench bench with
    | Error e ->
        prerr_endline e;
        1
    | Ok b ->
        let cs =
          P.Client_session.create ~budget ~tau_f:P.Profile.default_tau_f
            ~tau_u:P.Profile.default_tau_u b.P.Suite.pag
        in
        let types = b.P.Suite.program.P.Ir.types in
        let null = P.Null_client.audit cs in
        Format.printf
          "null audit: %d bases checked, %d provably null, %d unknown@."
          null.P.Null_client.n_checked
          (List.length null.P.Null_client.findings)
          null.P.Null_client.n_unknown;
        let casts = P.Cast_client.check_all cs types in
        Format.printf
          "downcasts:  %d safe, %d unsafe, %d vacuous, %d unknown@."
          casts.P.Cast_client.n_safe casts.P.Cast_client.n_unsafe
          casts.P.Cast_client.n_vacuous casts.P.Cast_client.n_unknown;
        let pairs = P.Alias_client.field_access_pairs ~limit:200 b.P.Suite.pag in
        let alias =
          P.Alias_client.summarise (P.Alias_client.check_pairs cs pairs)
        in
        Format.printf
          "aliasing:   %d pairs -> %d may-alias, %d must-not, %d unknown@."
          (List.length pairs) alias.P.Alias_client.n_may
          alias.P.Alias_client.n_must_not alias.P.Alias_client.n_unknown;
        let escape = P.Escape_client.check_all ~limit:200 cs in
        Format.printf
          "escape:     %d allocations -> %d escape to globals, %d local, %d            unknown@."
          (escape.P.Escape_client.n_escaping + escape.P.Escape_client.n_local
         + escape.P.Escape_client.n_unknown)
          escape.P.Escape_client.n_escaping escape.P.Escape_client.n_local
          escape.P.Escape_client.n_unknown;
        Format.printf "jmp edges shared across all clients: %d@."
          (P.Client_session.n_jumps_shared cs);
        0
  in
  Cmd.v
    (Cmd.info "clients"
       ~doc:"Run the bundled client analyses (null, casts, aliasing, escape)")
    Term.(const run $ bench_arg $ budget_arg)

let analyze_cmd =
  let path_arg =
    let doc = "Mini-Java source file (see examples/vector.mj)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let insensitive_arg =
    let doc = "Run context-insensitively (Andersen-equivalent)." in
    Arg.(value & flag & info [ "insensitive" ] ~doc)
  in
  let run path budget insensitive =
    match P.Parser.parse_file path with
    | Error e ->
        Format.eprintf "%s: %a@." path P.Parser.pp_error e;
        1
    | Ok program -> (
        match P.Wellformed.check program with
        | issue :: _ ->
            Format.eprintf "%s: %a@." path P.Wellformed.pp_issue issue;
            1
        | [] ->
            let cg = P.Callgraph.build program in
            let lowering = P.Lower.lower program cg in
            let pag = lowering.P.Lower.pag in
            let config =
              {
                (P.Config.with_budget budget P.Config.default) with
                P.Config.context_sensitive = not insensitive;
              }
            in
            let ctx_store = P.Ctx.create_store () in
            let session = P.Solver.make_session ~config ~ctx_store pag in
            Format.printf "%a@.@." P.Pag.pp_stats pag;
            Array.iter
              (fun v ->
                let outcome = P.Solver.points_to session v in
                let objs = P.Query.objects outcome.P.Query.result in
                Format.printf "pts(%s) = {%s}%s@." (P.Pag.var_name pag v)
                  (String.concat ", " (List.map (P.Pag.obj_name pag) objs))
                  (match outcome.P.Query.result with
                  | P.Query.Out_of_budget -> "  (out of budget)"
                  | _ -> ""))
              (P.Pag.app_locals pag);
            0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Parse a Mini-Java source file and report points-to sets for              its application locals")
    Term.(const run $ path_arg $ budget_arg $ insensitive_arg)

let save_cmd =
  let path_arg =
    let doc = "Output file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run bench path =
    match build_bench bench with
    | Error e ->
        prerr_endline e;
        1
    | Ok b ->
        P.Serial.save_file path b.P.Suite.pag;
        Format.printf "wrote %s@." path;
        0
  in
  Cmd.v (Cmd.info "save" ~doc:"Serialise a benchmark PAG to a file")
    Term.(const run $ bench_arg $ path_arg)

let load_pag_cmd =
  let path_arg =
    let doc = "PAG file (see `parcfl save`)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run path mode threads budget =
    match P.Serial.load_file path with
    | Error e ->
        prerr_endline e;
        1
    | Ok pag ->
        let solver_config = P.Config.with_budget budget P.Config.default in
        let report =
          P.Runner.run ~tau_f:P.Profile.default_tau_f
            ~tau_u:P.Profile.default_tau_u ~solver_config ~mode ~threads
            ~queries:(P.Pag.app_locals pag) pag
        in
        Format.printf "%a@." (fun ppf -> P.Report.pp_summary ppf) report;
        0
  in
  Cmd.v
    (Cmd.info "load-pag"
       ~doc:"Load a serialised PAG and analyse its app locals")
    Term.(const run $ path_arg $ mode_arg $ threads_arg $ budget_arg)

let socket_arg =
  let doc = "Unix domain socket path." in
  Arg.(
    value & opt (some string) None & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let stdio_arg =
    let doc = "Also serve stdin/stdout (default when no --socket)." in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let max_batch_arg =
    let doc = "Micro-batch size cap." in
    Arg.(value & opt int 64 & info [ "max-batch" ] ~docv:"N" ~doc)
  in
  let queue_cap_arg =
    let doc = "Admission queue capacity (beyond it, requests are rejected)." in
    Arg.(value & opt int 1024 & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let cache_cap_arg =
    let doc = "Result cache capacity (entries)." in
    Arg.(value & opt int 4096 & info [ "cache-cap" ] ~docv:"N" ~doc)
  in
  let slowlog_cap_arg =
    let doc = "Slow-query flight recorder capacity (worst queries kept)." in
    Arg.(value & opt int 32 & info [ "slowlog-cap" ] ~docv:"N" ~doc)
  in
  let wd_stall_arg =
    let doc =
      "Liveness watchdog: max seconds without worker progress (while \
       requests are queued) before $(b,health) reports degraded."
    in
    Arg.(
      value
      & opt float P.Svc_watchdog.default_config.P.Svc_watchdog.wd_stall_s
      & info [ "wd-stall-s" ] ~docv:"S" ~doc)
  in
  let wd_starvation_arg =
    let doc =
      "Liveness watchdog: max seconds the oldest admitted request may wait \
       before $(b,health) reports degraded."
    in
    Arg.(
      value
      & opt float
          P.Svc_watchdog.default_config.P.Svc_watchdog.wd_starvation_s
      & info [ "wd-starvation-s" ] ~docv:"S" ~doc)
  in
  let metrics_socket_arg =
    let doc =
      "Unix socket serving the Prometheus text exposition: each accepted \
       connection receives one scrape and is closed."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-socket" ] ~docv:"PATH" ~doc)
  in
  let preseed_arg =
    let doc =
      "Warm start: run the whole-program bitset kernel over the loaded PAG \
       and pre-seed the jmp store with its facts before accepting traffic."
    in
    Arg.(value & flag & info [ "preseed" ] ~doc)
  in
  let serve_insensitive_arg =
    let doc = "Serve context-insensitively (Andersen-equivalent engine)." in
    Arg.(value & flag & info [ "insensitive" ] ~doc)
  in
  let oracle_arg =
    let doc =
      "Build the O(1) pair-query oracle (offline Dyck decomposition of the \
       CI relation) at startup and answer budget-free, deadline-free \
       queries from it before the cache and solver. Requires \
       $(b,--insensitive); shares $(b,--preseed)'s kernel run."
    in
    Arg.(value & flag & info [ "oracle" ] ~doc)
  in
  let oracle_snapshot_out_arg =
    let doc =
      "Export the live oracle as a generation-tagged snapshot to $(docv) \
       (written atomically) before accepting traffic — the warm replica's \
       half of oracle ride-along."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "oracle-snapshot-out" ] ~docv:"FILE" ~doc)
  in
  let oracle_snapshot_in_arg =
    let doc =
      "Wait for $(docv) to appear, then install it as the oracle tier \
       before accepting traffic (arms the tier without re-running the \
       kernel) — the joining replica's half of oracle ride-along. Refused \
       (and the server exits) on a generation mismatch."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "oracle-snapshot-in" ] ~docv:"FILE" ~doc)
  in
  let snapshot_out_arg =
    let doc =
      "Export the engine's Finished-only jmp store as a generation-tagged \
       snapshot to $(docv) (written atomically) before accepting traffic — \
       the warm replica's half of cluster warm-up."
    in
    Arg.(
      value & opt (some string) None & info [ "snapshot-out" ] ~docv:"FILE" ~doc)
  in
  let snapshot_in_arg =
    let doc =
      "Wait for $(docv) to appear, then warm the jmp store from it before \
       accepting traffic — the joining replica's half of cluster warm-up. \
       Refused (and the server exits) when the snapshot's generation \
       disagrees with the engine's."
    in
    Arg.(
      value & opt (some string) None & info [ "snapshot-in" ] ~docv:"FILE" ~doc)
  in
  let run bench mode threads budget socket stdio max_batch queue_cap
      cache_cap slowlog_cap wd_stall_s wd_starvation_s
      metrics_socket preseed insensitive oracle oracle_snapshot_out
      oracle_snapshot_in snapshot_out snapshot_in trace_out bench_json =
    match build_bench bench with
    | Error e ->
        prerr_endline e;
        1
    | Ok b ->
        if oracle && not insensitive then
          Format.eprintf
            "parcfl serve: --oracle answers the CI relation; ignored without \
             --insensitive@.";
        let tracer =
          Option.map
            (fun _ -> P.Tracer.create ~workers:(max 1 threads) ())
            trace_out
        in
        let config =
          {
            P.Service.threads;
            mode;
            max_batch;
            queue_capacity = queue_cap;
            cache_capacity = cache_cap;
            max_budget = budget;
            context_sensitive = not insensitive;
            preseed;
            oracle = oracle && insensitive;
            tau_f = Some P.Profile.default_tau_f;
            tau_u = Some P.Profile.default_tau_u;
            slowlog_capacity = slowlog_cap;
            wd_stall_s;
            wd_starvation_s;
          }
        in
        let service =
          P.Service.create ~config ?tracer ~type_level:b.P.Suite.type_level
            b.P.Suite.pag
        in
        let snapshot_failed = ref false in
        Option.iter
          (fun path ->
            match
              Result.bind
                (P.Cluster_snapshot.wait_for_file ~path ())
                (P.Service.import_snapshot service)
            with
            | Ok n -> Format.eprintf "parcfl serve: warmed %d records@." n
            | Error e ->
                Format.eprintf "parcfl serve: snapshot import failed: %s@." e;
                snapshot_failed := true)
          snapshot_in;
        Option.iter
          (fun path ->
            match
              Result.bind
                (P.Svc_engine.export_snapshot (P.Service.engine service))
                (fun (text, n) ->
                  Result.map
                    (fun () -> n)
                    (P.Cluster_snapshot.save_file ~path text))
            with
            | Ok n ->
                Format.eprintf "parcfl serve: exported %d records -> %s@." n
                  path
            | Error e ->
                Format.eprintf "parcfl serve: snapshot export failed: %s@." e;
                snapshot_failed := true)
          snapshot_out;
        Option.iter
          (fun path ->
            match
              Result.bind
                (P.Cluster_snapshot.wait_for_file ~path ())
                (P.Service.import_oracle service)
            with
            | Ok rows ->
                Format.eprintf "parcfl serve: oracle armed (%d rows)@." rows
            | Error e ->
                Format.eprintf "parcfl serve: oracle import failed: %s@." e;
                snapshot_failed := true)
          oracle_snapshot_in;
        Option.iter
          (fun path ->
            match
              Result.bind (P.Service.export_oracle service) (fun (text, rows) ->
                  Result.map
                    (fun () -> rows)
                    (P.Cluster_snapshot.save_file ~path text))
            with
            | Ok rows ->
                Format.eprintf "parcfl serve: exported oracle (%d rows) -> %s@."
                  rows path
            | Error e ->
                Format.eprintf "parcfl serve: oracle export failed: %s@." e;
                snapshot_failed := true)
          oracle_snapshot_out;
        if !snapshot_failed then 1
        else begin
        let stdio = if socket = None then true else stdio in
        (* Service chatter goes to stderr: stdout is the stdio transport. *)
        Format.eprintf "parcfl serve: bench=%s mode=%a threads=%d%s%s%s%s@."
          bench
          (fun ppf -> P.Mode.pp ppf)
          mode threads
          (match socket with
          | Some p -> Printf.sprintf " socket=%s" p
          | None -> "")
          (if stdio then " stdio" else "")
          (if insensitive then " insensitive" else "")
          ((if preseed then
              Printf.sprintf " preseed=%d"
                (P.Svc_engine.preseeded_edges (P.Service.engine service))
            else "")
          ^
          match P.Svc_engine.oracle (P.Service.engine service) with
          | Some o ->
              Printf.sprintf " oracle=%d-rows"
                (P.Oracle.distinct_rows o)
          | None -> "");
        P.Server.serve ~stdio ?socket_path:socket
          ?metrics_socket_path:metrics_socket service;
        let stats = P.Service.metrics_json service in
        Format.eprintf "parcfl serve: drained; stats %s@."
          (P.Json.to_string stats);
        let failed = ref false in
        let write what path f =
          try f () with
          | Sys_error msg ->
              Format.eprintf "parcfl: cannot write %s %S: %s@." what path msg;
              failed := true
        in
        (match (trace_out, tracer) with
        | Some path, Some tr ->
            write "trace" path (fun () -> P.Tracer.write_chrome ~path tr)
        | _ -> ());
        Option.iter
          (fun path ->
            write "bench json" path (fun () ->
                P.Bench_json.write ~path
                  ~meta:[ ("bench", P.Json.String bench) ]
                  [ P.Json.Obj [ ("section", P.Json.String "serve"); ("stats", stats) ] ]))
          bench_json;
        if !failed then 1 else 0
        end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent analysis service over stdio and/or a Unix \
          domain socket (micro-batching, cross-batch result cache, \
          admission control)")
    Term.(
      const run $ bench_arg $ mode_arg $ threads_arg $ budget_arg $ socket_arg
      $ stdio_arg $ max_batch_arg $ queue_cap_arg $ cache_cap_arg
      $ slowlog_cap_arg $ wd_stall_arg $ wd_starvation_arg
      $ metrics_socket_arg
      $ preseed_arg $ serve_insensitive_arg $ oracle_arg
      $ oracle_snapshot_out_arg $ oracle_snapshot_in_arg $ snapshot_out_arg
      $ snapshot_in_arg $ trace_out_arg $ bench_json_arg)

let load_cmd =
  let clients_arg =
    let doc = "Concurrent closed-loop clients (one domain each)." in
    Arg.(value & opt int 4 & info [ "c"; "clients" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc = "Requests per client." in
    Arg.(value & opt int 50 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Aggregate target rate, requests/second (0 = unthrottled)." in
    Arg.(value & opt float 0.0 & info [ "rate" ] ~docv:"QPS" ~doc)
  in
  let mix_arg =
    let doc = "Size of the replayed query mix." in
    Arg.(value & opt int 256 & info [ "mix" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Query-mix sampling seed." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let hot_share_arg =
    let doc = "Fraction of draws aimed at the hot query set." in
    Arg.(value & opt float 0.75 & info [ "hot-share" ] ~docv:"F" ~doc)
  in
  let sockets_arg =
    let doc =
      "Target Unix socket path; repeatable — clients are spread \
       round-robin over all given targets, so one run can drive the \
       cluster router and raw replicas identically."
    in
    Arg.(value & opt_all string [] & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let run bench sockets clients requests rate mix seed hot_share bench_json =
    match sockets with
    | [] ->
        prerr_endline "parcfl load: at least one --socket is required";
        1
    | sockets -> (
        match build_bench bench with
        | Error e ->
            prerr_endline e;
            1
        | Ok b ->
            (* The server must be running the same benchmark: the mix is
               replayed as stable #<id> references into its PAG. *)
            let vars = P.Suite.query_mix ~seed ~hot_share b ~n:mix in
            let queries =
              Array.map (fun v -> Printf.sprintf "#%d" v) vars
            in
            if Array.length queries = 0 then begin
              prerr_endline "parcfl load: benchmark has no queries";
              1
            end
            else begin
              let targets =
                Array.of_list
                  (List.map
                     (fun s -> (s, P.Load_gen.connect_unix s))
                     sockets)
              in
              let summary =
                P.Load_gen.run ~rate ~targets ~clients
                  ~requests_per_client:requests ~queries ()
              in
              Format.printf "%a@." (fun ppf -> P.Load_gen.pp ppf) summary;
              (match
                 P.Load_gen.fetch_stats
                   ~connect:(P.Load_gen.connect_unix (List.hd sockets))
                   ()
               with
              | Ok stats ->
                  Format.printf "server stats: %s@." (P.Json.to_string stats)
              | Error e -> Format.eprintf "stats fetch failed: %s@." e);
              Option.iter
                (fun path ->
                  try
                    P.Bench_json.write ~path
                      ~meta:[ ("bench", P.Json.String bench) ]
                      [
                        P.Json.Obj
                          [
                            ("section", P.Json.String "load");
                            ("summary", P.Load_gen.to_json summary);
                          ];
                      ]
                  with Sys_error msg ->
                    Format.eprintf "parcfl: cannot write bench json: %s@." msg)
                bench_json;
              if summary.P.Load_gen.ls_errors > 0 then 1 else 0
            end)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Replay a benchmark query mix against a running `parcfl serve` \
          socket and report throughput and latency percentiles")
    Term.(
      const run $ bench_arg $ sockets_arg $ clients_arg $ requests_arg
      $ rate_arg $ mix_arg $ seed_arg $ hot_share_arg $ bench_json_arg)

let cluster_cmd =
  let replicas_arg =
    let doc = "Number of engine replicas to spawn." in
    Arg.(value & opt int 2 & info [ "r"; "replicas" ] ~docv:"N" ~doc)
  in
  let adopt_arg =
    let doc =
      "Adopt an already-running serve socket as a replica instead of \
       spawning one; repeatable (overrides --replicas)."
    in
    Arg.(value & opt_all string [] & info [ "adopt" ] ~docv:"PATH" ~doc)
  in
  let poll_ms_arg =
    let doc = "Health-poll interval, milliseconds." in
    Arg.(value & opt float 500.0 & info [ "poll-ms" ] ~docv:"MS" ~doc)
  in
  let readmit_arg =
    let doc =
      "Consecutive healthy polls a drained replica must answer before \
       re-admission."
    in
    Arg.(value & opt int 3 & info [ "readmit" ] ~docv:"K" ~doc)
  in
  let admin_replica_arg =
    let doc =
      "Forward metrics/stats/slowlog to replica $(docv) alone instead of \
       federating over every live replica."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "replica" ] ~docv:"N" ~doc)
  in
  let rebalance_ms_arg =
    let doc =
      "Re-scan shard placement against the observed per-component load \
       every $(docv) milliseconds, migrating only components whose owner \
       improves; 0 disables."
    in
    Arg.(value & opt float 0.0 & info [ "rebalance-ms" ] ~docv:"MS" ~doc)
  in
  let rebalance_candidates_arg =
    let doc = "Seeds scanned per placement re-scan." in
    Arg.(
      value & opt int 16 & info [ "rebalance-candidates" ] ~docv:"N" ~doc)
  in
  let run bench threads budget insensitive preseed oracle socket replicas
      adopt poll_ms readmit admin_replica rebalance_ms rebalance_candidates
      trace_out =
    match socket with
    | None ->
        prerr_endline "parcfl cluster: --socket is required";
        1
    | Some socket -> (
        match build_bench bench with
        | Error e ->
            prerr_endline e;
            1
        | Ok b ->
            if oracle && not insensitive then
              Format.eprintf
                "parcfl cluster: --oracle answers the CI relation; ignored \
                 without --insensitive@.";
            let oracle = oracle && insensitive in
            let members =
              if adopt <> [] then
                Array.of_list
                  (List.mapi
                     (fun i s -> P.Cluster_replica.adopt ~id:i ~socket:s)
                     adopt)
              else begin
                let snap = socket ^ ".jmpsnap" in
                let osnap = socket ^ ".oraclesnap" in
                (try Sys.remove snap with Sys_error _ -> ());
                (try Sys.remove osnap with Sys_error _ -> ());
                Array.init (max 1 replicas) (fun i ->
                    let sock = Printf.sprintf "%s.r%d" socket i in
                    let argv =
                      [ Sys.executable_name; "serve"; "-b"; bench;
                        "--socket"; sock; "-t"; string_of_int threads;
                        "--budget"; string_of_int budget ]
                      @ (if insensitive then [ "--insensitive" ] else [])
                      @ (if preseed then
                           if i = 0 then [ "--preseed"; "--snapshot-out"; snap ]
                           else [ "--snapshot-in"; snap ]
                         else [])
                      @ (if oracle then
                           (* replica 0 pays the build once; joiners arm the
                              tier from its exported rows *)
                           if i = 0 then
                             [ "--oracle"; "--oracle-snapshot-out"; osnap ]
                           else [ "--oracle-snapshot-in"; osnap ]
                         else [])
                      @ (match trace_out with
                        | Some _ ->
                            (* each replica writes its own trace on exit;
                               the router merges them into [trace_out] *)
                            [ "--trace-out"; sock ^ ".trace.json" ]
                        | None -> [])
                    in
                    P.Cluster_replica.spawn ~id:i ~socket:sock
                      ~argv:(Array.of_list argv))
              end
            in
            let kill_all () =
              Array.iter P.Cluster_replica.kill members;
              Array.iter (fun r -> P.Cluster_replica.reap r) members
            in
            let booted =
              Array.for_all
                (fun r ->
                  match P.Cluster_replica.wait_socket r with
                  | Ok () -> true
                  | Error e ->
                      Format.eprintf "parcfl cluster: %s@." e;
                      false)
                members
            in
            if not booted then begin
              kill_all ();
              1
            end
            else begin
              Array.iter
                (fun r ->
                  Format.printf "replica %d socket=%s%s@."
                    (P.Cluster_replica.id r)
                    (P.Cluster_replica.socket r)
                    (match P.Cluster_replica.pid r with
                    | Some pid -> Printf.sprintf " pid=%d" pid
                    | None -> " adopted"))
                members;
              Format.printf "router socket=%s replicas=%d@.%!" socket
                (Array.length members);
              let pag = b.P.Suite.pag in
              let plan =
                P.Schedule.prepare ~pag ~type_level:b.P.Suite.type_level
              in
              (* Balance placement against the queryable set: without a
                 traffic histogram, every application local is equally
                 likely to be asked. *)
              let load = Array.make (P.Pag.n_vars pag) 0 in
              Array.iter
                (fun v -> load.(v) <- load.(v) + 1)
                b.P.Suite.queries;
              let shard_map =
                P.Shard_map.of_plan_balanced
                  ~n_shards:(Array.length members) ~load plan
              in
              let names = Hashtbl.create 1024 in
              for v = 0 to P.Pag.n_vars pag - 1 do
                (* First binding wins, matching the service's resolver. *)
                let name = P.Pag.var_name pag v in
                if not (Hashtbl.mem names name) then Hashtbl.add names name v
              done;
              let resolve name =
                let len = String.length name in
                if len > 1 && name.[0] = '#' then
                  match int_of_string_opt (String.sub name 1 (len - 1)) with
                  | Some v when v >= 0 && v < P.Pag.n_vars pag -> Ok v
                  | Some v ->
                      Error
                        (Printf.sprintf "variable id %d out of range (0..%d)"
                           v
                           (P.Pag.n_vars pag - 1))
                  | None ->
                      Error (Printf.sprintf "malformed variable id %S" name)
                else
                  match Hashtbl.find_opt names name with
                  | Some v -> Ok v
                  | None -> Error (Printf.sprintf "unknown variable %S" name)
              in
              let config =
                {
                  P.Router.default_config with
                  P.Router.poll_interval = poll_ms /. 1000.0;
                  k_readmit = readmit;
                  admin_replica;
                  rebalance_interval = rebalance_ms /. 1000.0;
                  rebalance_candidates;
                }
              in
              let router_spans = ref [] in
              let on_span =
                match trace_out with
                | None -> None
                | Some _ ->
                    Some (fun s -> router_spans := s :: !router_spans)
              in
              P.Router.serve ~config ?on_span ~socket_path:socket ~shard_map
                ~resolve members;
              (* quit was broadcast by the router; give the replicas their
                 graceful drain, then make sure nothing lingers. *)
              Array.iter (fun r -> P.Cluster_replica.reap r) members;
              (match trace_out with
              | None -> ()
              | Some path ->
                  (* Merge whatever traces the replicas managed to write —
                     a replica that was killed mid-run is simply absent
                     from its lane. *)
                  let replica_docs =
                    Array.to_list members
                    |> List.filter_map (fun r ->
                           let p =
                             P.Cluster_replica.socket r ^ ".trace.json"
                           in
                           match In_channel.with_open_bin p In_channel.input_all with
                           | text -> (
                               match P.Json.of_string text with
                               | Ok doc -> Some (P.Cluster_replica.id r, doc)
                               | Error e ->
                                   Format.eprintf
                                     "parcfl cluster: unreadable trace %s: %s@."
                                     p e;
                                   None)
                           | exception Sys_error _ -> None)
                  in
                  let merged =
                    P.Tracer.merge_cluster
                      ~router_spans:(List.rev !router_spans)
                      ~replicas:replica_docs
                  in
                  P.Json.write_file ~path merged;
                  Format.printf
                    "cluster trace: %d router span(s), %d replica lane(s) -> %s@."
                    (List.length !router_spans)
                    (List.length replica_docs)
                    path);
              0
            end)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Serve a benchmark from N engine replicas behind a shard-affine \
          router: queries route by their direct-relation group, dead \
          replicas are drained and replayed, drained replicas re-admit \
          after consecutive healthy polls")
    Term.(
      const run $ bench_arg $ threads_arg $ budget_arg
      $ Arg.(value & flag & info [ "insensitive" ] ~doc:"Context-insensitive replicas.")
      $ Arg.(
          value & flag
          & info [ "preseed" ]
              ~doc:
                "Warm start: replica 0 preseeds from the bitset kernel and \
                 exports a snapshot the other replicas import before \
                 serving.")
      $ Arg.(
          value & flag
          & info [ "oracle" ]
              ~doc:
                "O(1) answer tier: replica 0 builds the pair-query oracle \
                 and exports its rows; the other replicas import them and \
                 arm the tier without re-running the kernel. Requires \
                 $(b,--insensitive).")
      $ socket_arg $ replicas_arg $ adopt_arg $ poll_ms_arg $ readmit_arg
      $ admin_replica_arg $ rebalance_ms_arg $ rebalance_candidates_arg
      $ trace_out_arg)

let dot_cmd =
  let run bench =
    match build_bench bench with
    | Error e ->
        prerr_endline e;
        1
    | Ok b ->
        print_string (P.Dot.to_string b.P.Suite.pag);
        0
  in
  Cmd.v (Cmd.info "dot" ~doc:"Dump the benchmark PAG as Graphviz")
    Term.(const run $ bench_arg)

let main =
  let doc = "parallel demand-driven pointer analysis with CFL-reachability" in
  Cmd.group (Cmd.info "parcfl" ~version:"1.0.0" ~doc)
    [
      info_cmd; run_cmd; query_cmd; oracle_cmd; explain_cmd; clients_cmd;
      analyze_cmd; save_cmd; load_pag_cmd; serve_cmd; cluster_cmd; load_cmd;
      dot_cmd;
    ]

let () = exit (Cmd.eval' main)

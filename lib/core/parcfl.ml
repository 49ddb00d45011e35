(** Parcfl — parallel demand-driven pointer analysis with CFL-reachability.

    OCaml reproduction of Su, Ye and Xue, "Parallel Pointer Analysis with
    CFL-Reachability" (ICPP 2014). The facade re-exports every subsystem
    and provides a one-call {!analyze} entry point; see the README for a
    tour and DESIGN.md for the system inventory.

    {2 Subsystem map}

    - {!Pag}, {!Ctx} — the pointer assignment graph and calling contexts;
    - {!Types}, {!Ir}, {!Callgraph}, {!Lower} — the Mini-Java frontend;
    - {!Config}, {!Solver}, {!Query}, {!Stats} — the demand-driven CFL
      solver (Algorithms 1/2);
    - {!Jmp_store}, {!Hooks} — data sharing by graph rewriting;
    - {!Schedule} — query scheduling (grouping, CD, DD);
    - {!Mode}, {!Runner}, {!Report} — the four execution configurations,
      real parallel execution, and the multicore simulator;
    - {!Andersen} — the whole-program baseline (a worklist reference);
    - {!Matrix} — the whole-program bitset CFL kernel (sequential or
      round-parallel), which feeds the jmp preseed and the oracle;
    - {!Oracle} — the O(1) pair-query oracle: offline Dyck decomposition
      of the CI relation with shared-row compression, the service's first
      answer tier;
    - {!Tracer}, {!Json}, {!Bench_json} — observability: per-worker event
      tracing with Chrome trace export, and machine-readable bench results;
    - {!Expo}, {!Telemetry} — pull-based telemetry: Prometheus text
      exposition and the collector registry every subsystem reports into
      (served by the service's [metrics] request and scrape socket);
    - {!Service}, {!Server}, {!Load_gen}, {!Svc_protocol}, ... — the
      persistent analysis service: micro-batching, cross-batch caching,
      admission control, request-lifecycle spans ({!Svc_span}), a liveness
      watchdog ({!Svc_watchdog}), stdio/Unix-socket front ends and a
      load-generator client;
    - {!Profile}, {!Genprog}, {!Suite} — benchmark generation;
    - {!Bitset}, {!Vec}, {!Rng}, ... — substrate data structures. *)

(* Substrate *)
module Bitset = Parcfl_prim.Bitset
module Vec = Parcfl_prim.Vec
module Scc = Parcfl_prim.Scc
module Union_find = Parcfl_prim.Union_find
module Rng = Parcfl_prim.Rng
module Intern = Parcfl_prim.Intern
module Pair_set = Parcfl_prim.Pair_set
module Int_table = Parcfl_prim.Int_table
module Pack = Parcfl_prim.Pack
module Counter = Parcfl_conc.Counter
module Sharded_map = Parcfl_conc.Sharded_map
module Work_queue = Parcfl_conc.Work_queue
module Barrier = Parcfl_conc.Barrier
module Domain_pool = Parcfl_conc.Domain_pool

(* Graph representation *)
module Pag = Parcfl_pag.Pag
module Ctx = Parcfl_pag.Ctx
module Dot = Parcfl_pag.Dot
module Cycle_elim = Parcfl_pag.Cycle_elim
module Serial = Parcfl_pag.Serial

(* Frontend *)
module Types = Parcfl_lang.Types
module Ir = Parcfl_lang.Ir
module Callgraph = Parcfl_lang.Callgraph
module Lower = Parcfl_lang.Lower
module Wellformed = Parcfl_lang.Wellformed
module Parser = Parcfl_lang.Parser

(* Solver *)
module Config = Parcfl_cfl.Config
module Query = Parcfl_cfl.Query
module Solver = Parcfl_cfl.Solver
module Stats = Parcfl_cfl.Stats
module Hooks = Parcfl_cfl.Hooks
module Matcher = Parcfl_cfl.Matcher
module Summary = Parcfl_cfl.Summary

(* Refinement *)
module Refinement = Parcfl_refine.Refinement

(* Data sharing and scheduling *)
module Jmp_store = Parcfl_sharing.Jmp_store
module Schedule = Parcfl_sched.Schedule

(* Parallel execution *)
module Mode = Parcfl_par.Mode
module Runner = Parcfl_par.Runner
module Report = Parcfl_par.Report
module Sim_store = Parcfl_par.Sim_store

(* Baseline *)
module Andersen = Parcfl_andersen.Solver
module Constraints = Parcfl_andersen.Constraints
module Matrix = Parcfl_matrix.Kernel
module Matrix_seed = Parcfl_matrix.Seed
module Oracle = Parcfl_oracle.Oracle

(* Clients *)
module Client_session = Parcfl_clients.Client_session
module Alias_client = Parcfl_clients.Alias_client
module Null_client = Parcfl_clients.Null_client
module Cast_client = Parcfl_clients.Cast_client
module Escape_client = Parcfl_clients.Escape_client

(* Service *)
module Svc_protocol = Parcfl_svc.Protocol
module Svc_cache = Parcfl_svc.Cache
module Svc_admission = Parcfl_svc.Admission
module Svc_engine = Parcfl_svc.Engine
module Svc_metrics = Parcfl_svc.Metrics
module Svc_slowlog = Parcfl_svc.Slowlog
module Svc_span = Parcfl_svc.Span
module Svc_watchdog = Parcfl_svc.Watchdog
module Svc_transport = Parcfl_svc.Transport
module Service = Parcfl_svc.Service
module Server = Parcfl_svc.Server
module Load_gen = Parcfl_svc.Load_gen

(* Cluster *)
module Shard_map = Parcfl_cluster.Shard_map
module Cluster_failover = Parcfl_cluster.Failover
module Cluster_snapshot = Parcfl_cluster.Snapshot
module Cluster_replica = Parcfl_cluster.Replica
module Cluster_federation = Parcfl_cluster.Federation
module Router = Parcfl_cluster.Router

(* Reporting and observability *)
module Ascii_table = Parcfl_stats.Ascii_table
module Histogram = Parcfl_stats.Histogram
module Tracer = Parcfl_obs.Tracer
module Json = Parcfl_obs.Json
module Bench_json = Parcfl_obs.Bench_json
module Expo = Parcfl_telemetry.Expo
module Telemetry = Parcfl_telemetry.Registry

(* Workloads *)
module Profile = Parcfl_workload.Profile
module Genprog = Parcfl_workload.Genprog
module Suite = Parcfl_workload.Suite

(** Analyse a Mini-Java program: build its call graph, lower to a PAG, and
    answer points-to queries for every application local (or the variables
    given) in the requested configuration. *)
let analyze ?(mode = Mode.Share_sched) ?(threads = 1) ?budget ?tau_f ?tau_u
    ?queries (program : Ir.program) : Report.t =
  let cg = Callgraph.build program in
  let lowering = Lower.lower program cg in
  let pag = lowering.Lower.pag in
  let queries =
    match queries with Some q -> q | None -> Pag.app_locals pag
  in
  let solver_config =
    match budget with
    | Some b -> Config.with_budget b Config.default
    | None -> Config.default
  in
  let type_level t = Types.level program.Ir.types t in
  Runner.run ?tau_f ?tau_u ~type_level ~solver_config ~mode ~threads ~queries
    pag

(** Analyse a named benchmark from the built-in suite. *)
let analyze_benchmark ?(mode = Mode.Share_sched) ?(threads = 1) ?budget
    ?tau_f ?tau_u name : (Report.t, string) result =
  match Suite.build_by_name name with
  | None -> Error (Printf.sprintf "unknown benchmark %S" name)
  | Some bench ->
      let solver_config =
        match budget with
        | Some b -> Config.with_budget b Config.default
        | None -> Config.default
      in
      Ok
        (Runner.run ?tau_f ?tau_u ~type_level:bench.Suite.type_level
           ~solver_config ~mode ~threads ~queries:bench.Suite.queries
           bench.Suite.pag)

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section IV) on the built-in 20-benchmark suite.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1 fig6  -- selected sections
     dune exec bench/main.exe -- -b h2 fig8   -- restrict benchmarks
     dune exec bench/main.exe -- --keep 20    -- prune history beyond 20 runs

   Sections: table1 table2 fig6 fig7 fig8 mem ablate refinecmp serve
   serve_coldwarm serve_cluster serve_oracle micro.

   Figures 6 and 8 report *simulated* multicore speedups: the host has a
   single core, so parallel scaling is measured with the deterministic
   discrete-event model (one traversal step = one time unit; see
   Parcfl.Runner.simulate and DESIGN.md). Real wall-clock numbers for the
   work-reduction effect (1-thread D/DQ vs Seq) are printed alongside. *)

module P = Parcfl
module T = P.Ascii_table

let budget = P.Profile.default_budget
let tau_f = P.Profile.default_tau_f
let tau_u = P.Profile.default_tau_u
let sim_threads = 16 (* the paper's core count *)

let solver_config = P.Config.with_budget budget P.Config.default

(* ------------------------------------------------------------------ *)
(* Per-benchmark measurements, computed once and shared by sections.   *)

type measurements = {
  bench : P.Suite.t;
  seq_real : P.Report.t Lazy.t;
  d1_real : P.Report.t Lazy.t;
  dq1_real : P.Report.t Lazy.t;
  d1_real_noopt : P.Report.t Lazy.t;
  naive16_sim : P.Report.t Lazy.t;
  d16_sim : P.Report.t Lazy.t;
  dq_sim : int -> P.Report.t;
  dq16_sim_noopt : P.Report.t Lazy.t;
}

let memo_int_fn f =
  let tbl = Hashtbl.create 8 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
        let v = f k in
        Hashtbl.replace tbl k v;
        v

let make_measurements bench =
  let queries = bench.P.Suite.queries in
  let pag = bench.P.Suite.pag in
  let type_level = bench.P.Suite.type_level in
  let run ?(tau_f = tau_f) ?(tau_u = tau_u) mode threads =
    P.Runner.run ~tau_f ~tau_u ~type_level ~solver_config ~mode ~threads
      ~queries pag
  in
  let simulate ?(tau_f = tau_f) ?(tau_u = tau_u) mode threads =
    P.Runner.simulate ~tau_f ~tau_u ~type_level ~solver_config ~mode ~threads
      ~queries pag
  in
  {
    bench;
    seq_real = lazy (run P.Mode.Seq 1);
    d1_real = lazy (run P.Mode.Share 1);
    dq1_real = lazy (run P.Mode.Share_sched 1);
    d1_real_noopt = lazy (run ~tau_f:1 ~tau_u:1 P.Mode.Share 1);
    naive16_sim = lazy (simulate P.Mode.Naive sim_threads);
    d16_sim = lazy (simulate P.Mode.Share sim_threads);
    dq_sim = memo_int_fn (fun t -> simulate P.Mode.Share_sched t);
    dq16_sim_noopt =
      lazy (simulate ~tau_f:1 ~tau_u:1 P.Mode.Share_sched sim_threads);
  }

(* Baseline cost: total simulated time of the sequential run. *)
let baseline_cost m =
  Array.fold_left ( + ) 0 (P.Runner.per_query_cost (Lazy.force m.seq_real))

let speedup m report =
  match report.P.Report.r_sim_makespan with
  | Some makespan when makespan > 0 ->
      float_of_int (baseline_cost m) /. float_of_int makespan
  | _ -> 1.0

let average ms sel =
  let n = List.length ms in
  if n = 0 then 0.0
  else List.fold_left (fun a m -> a +. sel m) 0.0 ms /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)

let rs_of report =
  let st = report.P.Report.r_stats in
  if st.P.Stats.s_steps_walked = 0 then 0.0
  else
    float_of_int st.P.Stats.s_steps_jumped
    /. float_of_int st.P.Stats.s_steps_walked

let ret_of m =
  let d = P.Report.n_early_terminations (Lazy.force m.d1_real) in
  let dq = P.Report.n_early_terminations (Lazy.force m.dq1_real) in
  if d = 0 then if dq = 0 then 1.0 else float_of_int dq
  else float_of_int dq /. float_of_int d

let table1 ms =
  Format.printf "@.== Table I: benchmark information and statistics ==@.";
  Format.printf
    "(TSeq = sequential wall seconds; #S = steps traversed by SeqCFL; RS = \
     steps saved via jmp edges / steps traversed, D mode; Sg = mean query \
     group size; #ETs = early terminations in D mode; RET = ETs(DQ)/ETs(D))@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let seq = Lazy.force m.seq_real in
        let d1 = Lazy.force m.d1_real in
        let dq1 = Lazy.force m.dq1_real in
        [
          b.P.Suite.profile.P.Profile.name;
          string_of_int (P.Suite.n_classes b);
          string_of_int (P.Suite.n_methods b);
          T.fmt_int (P.Pag.n_nodes b.P.Suite.pag);
          T.fmt_int (P.Pag.n_edges b.P.Suite.pag);
          T.fmt_int (Array.length b.P.Suite.queries);
          T.fmt_float ~decimals:3 seq.P.Report.r_wall_seconds;
          T.fmt_int (P.Report.n_jumps d1);
          T.fmt_int (P.Report.total_walked seq);
          T.fmt_float (rs_of d1);
          T.fmt_float ~decimals:1 dq1.P.Report.r_mean_group_size;
          string_of_int (P.Report.n_early_terminations d1);
          T.fmt_float (ret_of m);
        ])
      ms
  in
  let avg_row =
    [
      "Average";
      "";
      "";
      "";
      "";
      T.fmt_int
        (int_of_float
           (average ms (fun m ->
                float_of_int (Array.length m.bench.P.Suite.queries))));
      T.fmt_float ~decimals:3
        (average ms (fun m -> (Lazy.force m.seq_real).P.Report.r_wall_seconds));
      T.fmt_int
        (int_of_float
           (average ms (fun m ->
                float_of_int (P.Report.n_jumps (Lazy.force m.d1_real)))));
      T.fmt_int
        (int_of_float
           (average ms (fun m ->
                float_of_int (P.Report.total_walked (Lazy.force m.seq_real)))));
      T.fmt_float (average ms (fun m -> rs_of (Lazy.force m.d1_real)));
      T.fmt_float ~decimals:1
        (average ms (fun m ->
             (Lazy.force m.dq1_real).P.Report.r_mean_group_size));
      T.fmt_float ~decimals:1
        (average ms (fun m ->
             float_of_int
               (P.Report.n_early_terminations (Lazy.force m.d1_real))));
      T.fmt_float (average ms ret_of);
    ]
  in
  T.render
    ~header:
      [
        "Benchmark"; "#Cls"; "#Mth"; "#Nodes"; "#Edges"; "#Queries";
        "TSeq(s)"; "#Jumps"; "#S"; "RS"; "Sg"; "#ETs"; "RET";
      ]
    Format.std_formatter
    (rows @ [ avg_row ])

(* ------------------------------------------------------------------ *)
(* Figure 6                                                             *)

let fig6 ms =
  Format.printf
    "@.== Fig. 6: speedups over SeqCFL (simulated %d virtual cores) ==@."
    sim_threads;
  Format.printf
    "(ParCFL^1_naive is 1.0 by construction; the paper reports 7.3X for \
     naive/16 on real hardware — memory contention is not modelled here, \
     so compare the D/naive and DQ/D ratios)@.@.";
  let rows =
    List.map
      (fun m ->
        [
          m.bench.P.Suite.profile.P.Profile.name;
          "1.00";
          T.fmt_float (speedup m (Lazy.force m.naive16_sim));
          T.fmt_float (speedup m (Lazy.force m.d16_sim));
          T.fmt_float (speedup m (m.dq_sim sim_threads));
        ])
      ms
  in
  let avg_row =
    [
      "AVERAGE";
      "1.00";
      T.fmt_float (average ms (fun m -> speedup m (Lazy.force m.naive16_sim)));
      T.fmt_float (average ms (fun m -> speedup m (Lazy.force m.d16_sim)));
      T.fmt_float (average ms (fun m -> speedup m (m.dq_sim sim_threads)));
    ]
  in
  T.render
    ~header:[ "Benchmark"; "naive/1"; "naive/16"; "D/16"; "DQ/16" ]
    Format.std_formatter
    (rows @ [ avg_row ]);
  Format.printf
    "@.Real 1-thread work reduction (wall-clock, Seq vs D vs DQ):@.@.";
  let rows =
    List.map
      (fun m ->
        let seq = (Lazy.force m.seq_real).P.Report.r_wall_seconds in
        let d = (Lazy.force m.d1_real).P.Report.r_wall_seconds in
        let dq = (Lazy.force m.dq1_real).P.Report.r_wall_seconds in
        [
          m.bench.P.Suite.profile.P.Profile.name;
          T.fmt_float ~decimals:3 seq;
          T.fmt_float ~decimals:3 d;
          T.fmt_float ~decimals:3 dq;
          T.fmt_float (if d > 0.0 then seq /. d else 0.0);
          T.fmt_float (if dq > 0.0 then seq /. dq else 0.0);
        ])
      ms
  in
  T.render
    ~header:[ "Benchmark"; "Seq(s)"; "D/1(s)"; "DQ/1(s)"; "Seq/D"; "Seq/DQ" ]
    Format.std_formatter rows

(* ------------------------------------------------------------------ *)
(* Figure 7                                                             *)

let fig7 ms =
  Format.printf
    "@.== Fig. 7: histogram of jmp edges by steps saved (all benchmarks) ==@.@.";
  let buckets = 17 in
  let agg sel =
    let fin = Array.make buckets 0 and unf = Array.make buckets 0 in
    List.iter
      (fun m ->
        match (sel m : P.Report.t).P.Report.r_jmp_histogram with
        | Some (f, u) ->
            Array.iteri (fun i v -> fin.(i) <- fin.(i) + v) f;
            Array.iteri (fun i v -> unf.(i) <- unf.(i) + v) u
        | None -> ())
      ms;
    (fin, unf)
  in
  let fin_opt, unf_opt = agg (fun m -> Lazy.force m.d1_real) in
  let fin_all, unf_all = agg (fun m -> Lazy.force m.d1_real_noopt) in
  P.Histogram.render Format.std_formatter ~bucket_label:P.Histogram.log2_label
    ~series:
      [
        ("Finished", fin_all);
        ("Finished_opt", fin_opt);
        ("Unfinished", unf_all);
        ("Unfinished_opt", unf_opt);
      ];
  let total a = Array.fold_left ( + ) 0 a in
  Format.printf
    "@.selective optimisation (tau_f=%d, tau_u=%d): %d jmp edges kept of %d \
     unrestricted@."
    tau_f tau_u
    (total fin_opt + total unf_opt)
    (total fin_all + total unf_all);
  (* Section IV-D2: speedup impact of the selective optimisation. *)
  let with_opt = average ms (fun m -> speedup m (m.dq_sim sim_threads)) in
  let without =
    average ms (fun m -> speedup m (Lazy.force m.dq16_sim_noopt))
  in
  Format.printf
    "average DQ/%d speedup: %.1fX with selective optimisation, %.1fX \
     without (paper: 16.2X -> 12.4X)@."
    sim_threads with_opt without

(* ------------------------------------------------------------------ *)
(* Figure 8                                                             *)

let fig8 ms =
  Format.printf
    "@.== Fig. 8: DQ scalability across thread counts (simulated) ==@.@.";
  let threads = [ 1; 2; 4; 8; 16 ] in
  let rows =
    List.map
      (fun m ->
        m.bench.P.Suite.profile.P.Profile.name
        :: List.map (fun t -> T.fmt_float (speedup m (m.dq_sim t))) threads)
      ms
  in
  let avg_row =
    "AVERAGE"
    :: List.map
         (fun t -> T.fmt_float (average ms (fun m -> speedup m (m.dq_sim t))))
         threads
  in
  T.render
    ~header:
      ("Benchmark" :: List.map (fun t -> Printf.sprintf "DQ/%d" t) threads)
    Format.std_formatter
    (rows @ [ avg_row ])

(* ------------------------------------------------------------------ *)
(* Table II                                                             *)

let table2 ms =
  Format.printf "@.== Table II: comparing parallel pointer analyses ==@.@.";
  T.render
    ~header:
      [
        "Analysis"; "Algorithm"; "On-demand"; "Ctx"; "Field"; "Flow"; "Lang";
        "Platform";
      ]
    Format.std_formatter
    [
      [ "[8]"; "Andersen"; "no"; "no"; "yes"; "no"; "C"; "CPU" ];
      [ "[3]"; "Andersen"; "no"; "no"; "no"; "partial"; "Java"; "CPU" ];
      [ "[7]"; "Andersen"; "no"; "no"; "yes"; "no"; "C"; "GPU" ];
      [ "[14]"; "Andersen"; "no"; "yes"; "no"; "no"; "C"; "CPU" ];
      [ "[9]"; "Andersen"; "no"; "no"; "yes"; "yes"; "C"; "CPU" ];
      [ "[10]"; "Andersen"; "no"; "no"; "yes"; "yes"; "C"; "GPU" ];
      [ "[20]"; "Andersen"; "no"; "no"; "yes"; "no"; "C"; "CPU-GPU" ];
      [ "this"; "CFL-reachability"; "yes"; "yes"; "yes"; "no"; "Java"; "CPU" ];
    ];
  Format.printf
    "@.Quantitative companion: demand-driven CFL (DQ, 1 thread) vs \
     whole-program Andersen (worklist) and the bitset kernel (2 threads) on \
     the same PAGs:@.@.";
  let sample =
    List.filter
      (fun m ->
        List.mem m.bench.P.Suite.profile.P.Profile.name
          [ "_202_jess"; "h2"; "luindex"; "avrora" ])
      ms
  in
  let sample = if sample = [] then ms else sample in
  let rows =
    List.map
      (fun m ->
        let pag = m.bench.P.Suite.pag in
        let t0 = Sys.time () in
        let a = P.Andersen.solve pag in
        let t_and = Sys.time () -. t0 in
        let t0 = Sys.time () in
        let k = P.Matrix.solve ~threads:2 pag in
        let t_kernel = Sys.time () -. t0 in
        let dq = Lazy.force m.dq1_real in
        [
          m.bench.P.Suite.profile.P.Profile.name;
          T.fmt_float ~decimals:3 t_and;
          string_of_int (P.Andersen.iterations a);
          T.fmt_float ~decimals:3 t_kernel;
          string_of_int (P.Matrix.rounds k);
          T.fmt_float ~decimals:3 dq.P.Report.r_wall_seconds;
          T.fmt_int (Array.length m.bench.P.Suite.queries);
        ])
      sample
  in
  T.render
    ~header:
      [
        "Benchmark"; "And.seq(s)"; "pops"; "Kernel/2(s)"; "rounds";
        "CFL DQ/1(s)"; "#queries";
      ]
    Format.std_formatter rows

(* ------------------------------------------------------------------ *)
(* Memory (Section IV-D5)                                               *)

let mem ms =
  Format.printf "@.== Memory: peak heap delta, Seq vs DQ/1 (Section IV-D5) ==@.@.";
  let sample =
    List.filter
      (fun m ->
        List.mem m.bench.P.Suite.profile.P.Profile.name
          [ "tomcat"; "fop"; "h2" ])
      ms
  in
  let sample = if sample = [] then ms else sample in
  let measure f =
    Gc.compact ();
    let before = Gc.allocated_bytes () in
    f ();
    let after = Gc.allocated_bytes () in
    after -. before
  in
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let queries = b.P.Suite.queries and pag = b.P.Suite.pag in
        let run mode =
          measure (fun () ->
              ignore
                (P.Runner.run ~tau_f ~tau_u ~type_level:b.P.Suite.type_level
                   ~solver_config ~mode ~threads:1 ~queries pag))
        in
        let seq_mem = run P.Mode.Seq in
        let dq_mem = run P.Mode.Share_sched in
        [
          b.P.Suite.profile.P.Profile.name;
          T.fmt_int (int_of_float (seq_mem /. 1024.));
          T.fmt_int (int_of_float (dq_mem /. 1024.));
          T.fmt_float (if seq_mem > 0. then dq_mem /. seq_mem else 1.0);
        ])
      sample
  in
  T.render
    ~header:
      [ "Benchmark"; "Seq alloc(KiB)"; "DQ alloc(KiB)"; "DQ/Seq" ]
    Format.std_formatter rows;
  Format.printf
    "(allocation volume stands in for the paper's peak-RSS comparison: \
     avoided traversals are avoided allocations)@."

(* ------------------------------------------------------------------ *)
(* Ablations: design-choice studies called out in DESIGN.md.            *)

let ablation_sample ms =
  let wanted = [ "_202_jess"; "luindex"; "h2"; "avrora"; "tomcat" ] in
  let sample =
    List.filter
      (fun m -> List.mem m.bench.P.Suite.profile.P.Profile.name wanted)
      ms
  in
  if sample = [] then ms else sample

let ablate ms =
  let ms = ablation_sample ms in
  Format.printf "@.== Ablations (design-choice studies) ==@.";

  (* 1. Budget sweep: completion rate and work vs B. *)
  Format.printf "@.-- budget sweep (Seq mode) --@.@.";
  let budgets = [ 1_000; 2_000; 4_000; 8_000; 16_000 ] in
  let rows =
    List.concat_map
      (fun m ->
        let b = m.bench in
        List.map
          (fun budget ->
            let cfg = P.Config.with_budget budget P.Config.default in
            let r =
              P.Runner.run ~type_level:b.P.Suite.type_level ~solver_config:cfg
                ~mode:P.Mode.Seq ~threads:1 ~queries:b.P.Suite.queries
                b.P.Suite.pag
            in
            [
              b.P.Suite.profile.P.Profile.name;
              T.fmt_int budget;
              Printf.sprintf "%d/%d" (P.Report.n_completed r)
                (Array.length b.P.Suite.queries);
              T.fmt_int (P.Report.total_walked r);
              T.fmt_float ~decimals:3 r.P.Report.r_wall_seconds;
            ])
          budgets)
      ms
  in
  T.render
    ~header:[ "Benchmark"; "B"; "completed"; "#S"; "wall(s)" ]
    Format.std_formatter rows;

  (* 2. Scheduling components: which of CD/DD ordering carries the win. *)
  Format.printf "@.-- scheduling components (simulated %d cores) --@.@."
    sim_threads;
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let sim ?w ?a () =
          P.Runner.simulate ~tau_f ~tau_u ?sched_order_within:w
            ?sched_order_across:a ~type_level:b.P.Suite.type_level
            ~solver_config ~mode:P.Mode.Share_sched ~threads:sim_threads
            ~queries:b.P.Suite.queries b.P.Suite.pag
        in
        let sp r = speedup m r in
        [
          b.P.Suite.profile.P.Profile.name;
          T.fmt_float (speedup m (Lazy.force m.d16_sim));
          T.fmt_float (sp (sim ~w:false ~a:false ()));
          T.fmt_float (sp (sim ~w:true ~a:false ()));
          T.fmt_float (sp (sim ~w:false ~a:true ()));
          T.fmt_float (sp (m.dq_sim sim_threads));
        ])
      ms
  in
  T.render
    ~header:
      [ "Benchmark"; "D (none)"; "group only"; "+CD"; "+DD"; "DQ (full)" ]
    Format.std_formatter rows;

  (* 3. Sharing directions: the paper's Bwd-only sharing vs both. *)
  Format.printf "@.-- sharing directions (1-thread real, walked steps) --@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let run dirs =
          P.Runner.run ~tau_f ~tau_u ~share_directions:dirs
            ~type_level:b.P.Suite.type_level ~solver_config ~mode:P.Mode.Share
            ~threads:1 ~queries:b.P.Suite.queries b.P.Suite.pag
        in
        let both = run `Both and bwd = run `Bwd_only in
        [
          b.P.Suite.profile.P.Profile.name;
          T.fmt_int (P.Report.total_walked (Lazy.force m.seq_real));
          T.fmt_int (P.Report.total_walked bwd);
          T.fmt_int (P.Report.total_walked both);
          T.fmt_int (P.Report.n_jumps bwd);
          T.fmt_int (P.Report.n_jumps both);
        ])
      ms
  in
  T.render
    ~header:
      [ "Benchmark"; "no sharing"; "Bwd only"; "both dirs"; "jmp(Bwd)";
        "jmp(both)" ]
    Format.std_formatter rows;

  (* 4. Static assign-closure summaries (related-work family [17]/[26]). *)
  Format.printf "@.-- static summaries (Seq mode) --@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let pag = b.P.Suite.pag in
        let summaries = P.Summary.build pag in
        let ctx_store = P.Ctx.create_store () in
        let session =
          P.Solver.make_session ~summaries ~config:solver_config ~ctx_store
            pag
        in
        let t0 = Unix.gettimeofday () in
        let walked = ref 0 in
        Array.iter
          (fun v ->
            let o = P.Solver.points_to session v in
            walked := !walked + o.P.Query.steps_walked)
          b.P.Suite.queries;
        let wall = Unix.gettimeofday () -. t0 in
        [
          b.P.Suite.profile.P.Profile.name;
          T.fmt_int (P.Summary.n_summarised summaries);
          T.fmt_int (P.Report.total_walked (Lazy.force m.seq_real));
          T.fmt_int !walked;
          T.fmt_float ~decimals:3 (Lazy.force m.seq_real).P.Report.r_wall_seconds;
          T.fmt_float ~decimals:3 wall;
        ])
      ms
  in
  T.render
    ~header:
      [
        "Benchmark"; "#summaries"; "#S plain"; "#S summarised"; "wall plain";
        "wall summ";
      ]
    Format.std_formatter rows;
  Format.printf
    "(summaries charge the walked closure to the budget, so #S barely      moves; the win is wall-clock: closure pops become one table hit)@.";

  (* 5. Points-to cycle elimination (paper Section IV-A). *)
  Format.printf "@.-- points-to cycle elimination (Seq mode) --@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let pag = b.P.Suite.pag in
        let ce = P.Cycle_elim.run pag in
        let queries' =
          P.Cycle_elim.translate_queries ce b.P.Suite.queries
        in
        let r =
          P.Runner.run ~type_level:b.P.Suite.type_level ~solver_config
            ~mode:P.Mode.Seq ~threads:1 ~queries:queries' ce.P.Cycle_elim.pag
        in
        [
          b.P.Suite.profile.P.Profile.name;
          T.fmt_int (P.Pag.n_vars pag);
          T.fmt_int ce.P.Cycle_elim.n_collapsed;
          T.fmt_int (Array.length b.P.Suite.queries);
          T.fmt_int (Array.length queries');
          T.fmt_int (P.Report.total_walked (Lazy.force m.seq_real));
          T.fmt_int (P.Report.total_walked r);
        ])
      ms
  in
  T.render
    ~header:
      [
        "Benchmark"; "#vars"; "collapsed"; "#queries"; "#queries'";
        "#S before"; "#S after";
      ]
    Format.std_formatter rows

(* ------------------------------------------------------------------ *)
(* Refinement vs general-purpose (the §IV-A configuration remark):      *)
(* downcast checking favours refinement's early accepts; null-pointer   *)
(* detection cannot accept over-approximations and gains nothing.       *)

let refinecmp ms =
  let ms = ablation_sample ms in
  Format.printf
    "@.== Refinement vs general-purpose configuration (paper §IV-A) ==@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let pag = b.P.Suite.pag in
        let types = b.P.Suite.program.P.Ir.types in
        let cfg = solver_config in
        (* Downcast sites, capped for runtime. *)
        let sites =
          List.filteri
            (fun i _ -> i < 60)
            (P.Cast_client.downcast_sites types pag)
        in
        (* General-purpose: full queries through a fresh session. *)
        let gp_walked = ref 0 and gp_safe = ref 0 in
        let gp_session =
          P.Solver.make_session ~config:cfg
            ~ctx_store:(P.Ctx.create_store ()) pag
        in
        List.iter
          (fun site ->
            let o = P.Solver.points_to gp_session site.P.Cast_client.src in
            gp_walked := !gp_walked + o.P.Query.steps_walked;
            match o.P.Query.result with
            | P.Query.Points_to pairs
              when List.for_all
                     (fun (ob, _) ->
                       let t = P.Pag.obj_typ pag ob in
                       P.Types.is_ref t
                       && P.Types.subtype types ~sub:t
                            ~super:site.P.Cast_client.target)
                     pairs ->
                incr gp_safe
            | _ -> ())
          sites;
        (* Refinement: early accept when the approximation proves it. *)
        let rf_walked = ref 0 and rf_safe = ref 0 and rf_passes = ref 0 in
        List.iter
          (fun site ->
            let obj_ok ob =
              let t = P.Pag.obj_typ pag ob in
              P.Types.is_ref t
              && P.Types.subtype types ~sub:t ~super:site.P.Cast_client.target
            in
            let o =
              P.Refinement.points_to ~max_passes:10
                ~satisfied:(fun r ->
                  match r with
                  | P.Query.Points_to pairs ->
                      List.for_all (fun (ob, _) -> obj_ok ob) pairs
                  | P.Query.Out_of_budget -> false)
                ~config:cfg ~ctx_store:(P.Ctx.create_store ()) pag
                site.P.Cast_client.src
            in
            rf_walked := !rf_walked + o.P.Refinement.steps_walked;
            rf_passes := !rf_passes + o.P.Refinement.passes;
            match o.P.Refinement.result with
            | P.Query.Points_to pairs
              when List.for_all (fun (ob, _) -> obj_ok ob) pairs ->
                incr rf_safe
            | _ -> ())
          sites;
        [
          b.P.Suite.profile.P.Profile.name;
          string_of_int (List.length sites);
          Printf.sprintf "%d" !gp_safe;
          T.fmt_int !gp_walked;
          Printf.sprintf "%d" !rf_safe;
          T.fmt_int !rf_walked;
          T.fmt_float ~decimals:1
            (if sites = [] then 0.0
             else float_of_int !rf_passes /. float_of_int (List.length sites));
        ])
      ms
  in
  T.render
    ~header:
      [
        "Benchmark"; "#casts"; "GP safe"; "GP steps"; "RF safe"; "RF steps";
        "RF passes/site";
      ]
    Format.std_formatter rows;
  Format.printf
    "@.(GP = general-purpose configuration — the paper's choice; RF =      refinement. RF wins when early passes prove casts safe; for clients      needing exact sets — null detection — RF degenerates to GP plus      wasted passes, which is why the paper runs GP.)@."

(* ------------------------------------------------------------------ *)
(* Service: the persistent analysis front end (lib/svc). Drives an      *)
(* in-process service through submit/pump with a skewed query mix and   *)
(* reports micro-batching throughput and cross-batch cache behaviour.   *)

let serve_entries : P.Json.t list ref = ref []

let serve ms =
  let ms = ablation_sample ms in
  Format.printf
    "@.== Service: micro-batched serving with a cross-batch cache ==@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let name = b.P.Suite.profile.P.Profile.name in
        let service =
          P.Service.create
            ~config:
              {
                P.Service.default_config with
                P.Service.threads = 2;
                max_batch = 32;
                tau_f = Some tau_f;
                tau_u = Some tau_u;
                max_budget = budget;
              }
            ~type_level:b.P.Suite.type_level b.P.Suite.pag
        in
        let mix = P.Suite.query_mix b ~n:400 in
        let answered = ref 0 in
        (* Answers/timeouts whose stage breakdown accounts for the reported
           latency (within 5% + 1µs) — the regress gate holds this at the
           request count, so a span-stamping regression fails CI. *)
        let with_breakdown = ref 0 in
        let note_response r =
          incr answered;
          match r with
          | P.Svc_protocol.Answer { latency_us; breakdown; _ }
          | P.Svc_protocol.Timeout { latency_us; breakdown; _ } ->
              let sum = P.Svc_span.total_us breakdown in
              if abs_float (sum -. latency_us) <= (0.05 *. latency_us) +. 1.0
              then incr with_breakdown
          | _ -> ()
        in
        let t0 = Unix.gettimeofday () in
        Array.iter
          (fun v ->
            P.Service.submit service ~now:(Unix.gettimeofday ())
              ~respond:note_response
              (P.Svc_protocol.Query
                 {
                   id = !answered;
                   var = Printf.sprintf "#%d" v;
                   budget = None;
                   deadline_ms = None;
                   trace = None;
                 });
            (* Work-conserving: every pump batches whatever is queued, so
               batch size is bounded by arrival concurrency (here: the
               admission queue depth when we poll). *)
            ignore
              (P.Service.pump service ~now:(Unix.gettimeofday ())))
          mix;
        P.Service.drain service ~now:(Unix.gettimeofday ());
        let wall = Unix.gettimeofday () -. t0 in
        let metrics = P.Service.metrics service in
        let hits = P.Svc_metrics.get metrics P.Svc_metrics.Cache_hit in
        let qps =
          if wall > 0.0 then float_of_int !answered /. wall else 0.0
        in
        let hit_rate = P.Svc_metrics.cache_hit_rate metrics in
        serve_entries :=
          P.Json.Obj
            [
              ("section", P.Json.String "serve");
              ("bench", P.Json.String name);
              ("requests", P.Json.Int !answered);
              ("completed_with_breakdown", P.Json.Int !with_breakdown);
              ("qps", P.Json.Float qps);
              ("cache_hit_rate", P.Json.Float hit_rate);
              ("wall_seconds", P.Json.Float wall);
              ("stats", P.Service.metrics_json service);
            ]
          :: !serve_entries;
        P.Service.shutdown service;
        [
          name;
          string_of_int !answered;
          T.fmt_float ~decimals:0 qps;
          T.fmt_float hit_rate;
          string_of_int hits;
          string_of_int (P.Svc_metrics.get metrics P.Svc_metrics.Batches);
          T.fmt_float ~decimals:1 (P.Svc_metrics.mean_batch_size metrics);
        ])
      ms
  in
  T.render
    ~header:
      [
        "Benchmark"; "#req"; "req/s"; "hit rate"; "#hits"; "#batches";
        "batch sz";
      ]
    Format.std_formatter rows

(* ------------------------------------------------------------------ *)
(* Cold start vs pre-seeding: the same query mix against an unseeded     *)
(* service and one pre-seeded from the whole-program matrix kernel       *)
(* (the CLI's --preseed). Both sides run the context-insensitive         *)
(* engine — the configuration under which the kernel's facts replay in   *)
(* full — so the only difference is the jmp store's starting contents.   *)
(* On budget-bound benches warm p95 runs higher than cold — cold gives   *)
(* up at the step budget where warm replays full seeded sets and         *)
(* completes more queries — so the regress.ml gate holds warm strictly   *)
(* below cold only where the committed baseline won decisively (the CI   *)
(* workload), and both completion counts at their baselines everywhere.  *)

let coldwarm_entries : P.Json.t list ref = ref []

(* p95 over a microsecond sample list — shared by the coldwarm and
   cluster sections. *)
let p95_us = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      a.(min (n - 1) (max 0 (int_of_float (ceil (0.95 *. float_of_int n)) - 1)))

let serve_coldwarm ms =
  let ms = ablation_sample ms in
  Format.printf
    "@.== Service: cold start vs matrix-kernel pre-seeding ==@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let name = b.P.Suite.profile.P.Profile.name in
        let mix = P.Suite.query_mix b ~n:400 in
        let run_side ~preseed =
          let service =
            P.Service.create
              ~config:
                {
                  P.Service.default_config with
                  P.Service.threads = 2;
                  max_batch = 32;
                  context_sensitive = false;
                  preseed;
                  tau_f = Some tau_f;
                  tau_u = Some tau_u;
                  max_budget = budget;
                }
              ~type_level:b.P.Suite.type_level b.P.Suite.pag
          in
          let completed = ref 0 and answered = ref 0 and solves = ref [] in
          (* Cache hits carry an all-zero breakdown; only real solves
             enter the latency population, so both sides measure the same
             set of unique queries. *)
          let note r =
            incr answered;
            match r with
            | P.Svc_protocol.Answer { breakdown; _ } ->
                incr completed;
                if breakdown.P.Svc_span.bd_solve_us > 0.0 then
                  solves := breakdown.P.Svc_span.bd_solve_us :: !solves
            | P.Svc_protocol.Timeout { breakdown; _ } ->
                if breakdown.P.Svc_span.bd_solve_us > 0.0 then
                  solves := breakdown.P.Svc_span.bd_solve_us :: !solves
            | _ -> ()
          in
          Array.iteri
            (fun i v ->
              P.Service.submit service ~now:(Unix.gettimeofday ())
                ~respond:note
                (P.Svc_protocol.Query
                   {
                     id = i;
                     var = Printf.sprintf "#%d" v;
                     budget = None;
                     deadline_ms = None;
                     trace = None;
                   });
              ignore (P.Service.pump service ~now:(Unix.gettimeofday ())))
            mix;
          P.Service.drain service ~now:(Unix.gettimeofday ());
          let seeds = P.Svc_engine.preseeded_edges (P.Service.engine service) in
          P.Service.shutdown service;
          (!completed, !answered, p95_us !solves, seeds)
        in
        let t0 = Unix.gettimeofday () in
        let cold_completed, requests, cold_p95, _ = run_side ~preseed:false in
        let warm_completed, _, warm_p95, seeds = run_side ~preseed:true in
        let wall = Unix.gettimeofday () -. t0 in
        coldwarm_entries :=
          P.Json.Obj
            [
              ("section", P.Json.String "serve_coldwarm");
              ("bench", P.Json.String name);
              ("requests", P.Json.Int requests);
              ("cold_completed", P.Json.Int cold_completed);
              ("warm_completed", P.Json.Int warm_completed);
              ("cold_solve_p95_us", P.Json.Float cold_p95);
              ("warm_solve_p95_us", P.Json.Float warm_p95);
              ("preseeded_edges", P.Json.Int seeds);
              ("wall_seconds", P.Json.Float wall);
            ]
          :: !coldwarm_entries;
        [
          name;
          string_of_int requests;
          T.fmt_float ~decimals:0 cold_p95;
          T.fmt_float ~decimals:0 warm_p95;
          T.fmt_float ~decimals:1
            (if warm_p95 > 0.0 then cold_p95 /. warm_p95 else 0.0);
          string_of_int cold_completed;
          string_of_int warm_completed;
          T.fmt_int seeds;
        ])
      ms
  in
  T.render
    ~header:
      [
        "Benchmark"; "#req"; "cold p95 us"; "warm p95 us"; "x";
        "cold ok"; "warm ok"; "seeds";
      ]
    Format.std_formatter rows

(* ------------------------------------------------------------------ *)
(* Cluster scale-out: the shard-affine partition behind lib/cluster's   *)
(* router, measured without processes. The 400-query mix is split by    *)
(* Shard_map.home — direct-component rendezvous ownership, exactly the  *)
(* router's routing rule — and each shard's substream runs serially     *)
(* through its own in-process service. With one core per replica the    *)
(* cluster finishes when its busiest replica does, so the modelled      *)
(* cluster wall is the max over per-replica walls and qps is the total  *)
(* request count over that wall. Affinity keeps every repeat of a       *)
(* variable on one replica, so cross-batch cache hits survive the       *)
(* split; the speedup column is qps relative to the 1-replica arm.      *)
(*                                                                      *)
(* A second measurement prices snapshot warm-up for a joining replica:  *)
(* the first 100 queries of the mix against a fresh service, cold vs    *)
(* seeded with a warmed donor's export_snapshot (the jmpsnap text the   *)
(* cluster CLI hands joiners), comparing solve-stage p95. The entry     *)
(* reuses the serve_coldwarm field names so the regress gates (both     *)
(* completion floors and warm-beats-cold where the baseline won         *)
(* decisively) apply unchanged.                                         *)

let cluster_entries : P.Json.t list ref = ref []

let serve_cluster ms =
  let ms = ablation_sample ms in
  Format.printf
    "@.== Cluster: shard-affine scale-out (modelled, one core per replica) \
     ==@.@.";
  let mk_service b =
    P.Service.create
      ~config:
        {
          P.Service.default_config with
          P.Service.threads = 2;
          max_batch = 32;
          tau_f = Some tau_f;
          tau_u = Some tau_u;
          max_budget = budget;
        }
      ~type_level:b.P.Suite.type_level b.P.Suite.pag
  in
  (* Drive one replica's substream exactly like the serve section: submit
     then pump, drain at the end. Returns (wall, answered, completed,
     [(request id, solve_us)] of real solves). *)
  let run_stream service vars =
    let answered = ref 0 and completed = ref 0 and solves = ref [] in
    let note r =
      incr answered;
      match r with
      | P.Svc_protocol.Answer { id; breakdown; _ } ->
          incr completed;
          if breakdown.P.Svc_span.bd_solve_us > 0.0 then
            solves := (id, breakdown.P.Svc_span.bd_solve_us) :: !solves
      | P.Svc_protocol.Timeout { id; breakdown; _ } ->
          if breakdown.P.Svc_span.bd_solve_us > 0.0 then
            solves := (id, breakdown.P.Svc_span.bd_solve_us) :: !solves
      | _ -> ()
    in
    (* The timed walls here are a few milliseconds; a major slice
       inherited from whatever section ran before would dwarf them, so
       every stream starts from a settled heap. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    Array.iteri
      (fun i v ->
        P.Service.submit service ~now:(Unix.gettimeofday ()) ~respond:note
          (P.Svc_protocol.Query
             {
               id = i;
               var = Printf.sprintf "#%d" v;
               budget = None;
               deadline_ms = None;
               trace = None;
             });
        ignore (P.Service.pump service ~now:(Unix.gettimeofday ())))
      vars;
    P.Service.drain service ~now:(Unix.gettimeofday ());
    let wall = Unix.gettimeofday () -. t0 in
    (* Each substream gets a fresh service; join its worker domains so a
       whole bench run stays under the runtime's domain limit. *)
    P.Service.shutdown service;
    (wall, !answered, !completed, !solves)
  in
  (* The walls under measurement are a few milliseconds, and the host's
     throughput drifts tens of percent between runs, so ratios of walls
     measured seconds apart are unusable. Instead each repeat times the
     1-replica stream and every arm's buckets back-to-back — one
     repeat's ratios share the same host conditions — and the reported
     speedup is the median of the per-repeat ratios. *)
  let repeats = 5 in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let scale_rows = ref [] and join_rows = ref [] in
  let rebalance_rows = ref [] in
  List.iter
    (fun m ->
      let b = m.bench in
      let name = b.P.Suite.profile.P.Profile.name in
      let mix = P.Suite.query_mix b ~n:400 in
      let plan =
        P.Schedule.prepare ~pag:b.P.Suite.pag
          ~type_level:b.P.Suite.type_level
      in
      let arms = [ 2; 4; 8 ] in
      (* Partition the mix once per arm; the buckets are deterministic.
         The map is load-balanced against a measured cost profile — the
         capacity-planning case where the operator knows the traffic.
         One calibration stream prices each variable: its first request
         pays the solve, every repeat pays the (uniform) fast-path cost,
         so load(v) = solve_us(v) + count(v) * overhead_us. Request
         counts alone are a poor proxy — per-variable solve costs spread
         over orders of magnitude. *)
      let load = Array.make (P.Pag.n_vars b.P.Suite.pag) 0 in
      let cal_wall, _, _, cal_solves = run_stream (mk_service b) mix in
      let solve_total =
        List.fold_left (fun acc (_, us) -> acc +. us) 0.0 cal_solves
      in
      let overhead_us =
        Float.max 1.0
          ((cal_wall *. 1e6) -. solve_total)
        /. float_of_int (max 1 (Array.length mix))
      in
      Array.iter
        (fun v ->
          load.(v) <- load.(v) + int_of_float (Float.max 1.0 overhead_us))
        mix;
      List.iter
        (fun (id, us) ->
          let v = mix.(id) in
          load.(v) <- load.(v) + int_of_float us)
        cal_solves;
      let buckets_of replicas =
        let map =
          P.Shard_map.of_plan_balanced ~candidates:64 ~n_shards:replicas
            ~load plan
        in
        let buckets = Array.make replicas [] in
        Array.iter
          (fun v ->
            let s = P.Shard_map.home map v in
            buckets.(s) <- v :: buckets.(s))
          mix;
        Array.to_list buckets
        |> List.filter_map (function
             | [] -> None
             | l -> Some (Array.of_list (List.rev l)))
      in
      let arm_buckets = List.map (fun r -> (r, buckets_of r)) arms in
      let n_arms = List.length arms in
      (* Each timed point is the better of two back-to-back streams: the
         arm wall is a max over buckets, which a single slow outlier
         biases upward, so trimming each bucket's tail first keeps the
         ratio honest under background noise. *)
      let timed vars =
        let w1', a, c, s = run_stream (mk_service b) vars in
        let w2', _, _, _ = run_stream (mk_service b) vars in
        (Float.min w1' w2', a, c, s)
      in
      let w1_samples = ref [] in
      let arm_walls = Array.make n_arms [] in
      let arm_ratios = Array.make n_arms [] in
      let a1 = ref 0 and c1 = ref 0 in
      let solves1 = ref [] in
      let arm_answered = Array.make n_arms 0 in
      let arm_completed = Array.make n_arms 0 in
      let arm_solves = Array.make n_arms [] in
      for rep = 1 to repeats do
        let w1, a, c, solves = timed mix in
        if rep = 1 then begin
          a1 := a;
          c1 := c;
          solves1 := List.map snd solves
        end;
        w1_samples := w1 :: !w1_samples;
        List.iteri
          (fun i (_, buckets) ->
            let wall = ref 0.0 and ans = ref 0 and comp = ref 0 in
            List.iter
              (fun vars ->
                let w, a, c, solves = timed vars in
                wall := Float.max !wall w;
                ans := !ans + a;
                comp := !comp + c;
                if rep = 1 then
                  arm_solves.(i) <-
                    List.rev_append (List.map snd solves) arm_solves.(i))
              buckets;
            if rep = 1 then begin
              arm_answered.(i) <- !ans;
              arm_completed.(i) <- !comp
            end;
            arm_walls.(i) <- !wall :: arm_walls.(i);
            arm_ratios.(i) <- (w1 /. !wall) :: arm_ratios.(i))
          arm_buckets
      done;
      let w1 = median !w1_samples in
      let qps1 = if w1 > 0.0 then float_of_int !a1 /. w1 else 0.0 in
      let note_arm ~replicas ~wall ~qps ~speedup ~answered ~completed
          ~busiest ~solve_p95 =
        cluster_entries :=
          P.Json.Obj
            [
              ("section", P.Json.String "serve_cluster");
              ("bench", P.Json.String name);
              ("replicas", P.Json.Int replicas);
              ("requests", P.Json.Int answered);
              ("completed", P.Json.Int completed);
              ("qps", P.Json.Float qps);
              ("speedup", P.Json.Float speedup);
              ("solve_p95_us", P.Json.Float solve_p95);
              ("busiest_share", P.Json.Float busiest);
              ("wall_seconds", P.Json.Float wall);
            ]
          :: !cluster_entries;
        scale_rows :=
          [
            name;
            string_of_int replicas;
            string_of_int answered;
            T.fmt_float ~decimals:0 qps;
            T.fmt_float ~decimals:2 speedup;
            T.fmt_float ~decimals:0 solve_p95;
            T.fmt_float ~decimals:2 busiest;
          ]
          :: !scale_rows
      in
      note_arm ~replicas:1 ~wall:w1 ~qps:qps1 ~speedup:1.0 ~answered:!a1
        ~completed:!c1 ~busiest:1.0 ~solve_p95:(p95_us !solves1);
      List.iteri
        (fun i (replicas, buckets) ->
          let biggest =
            List.fold_left
              (fun acc vars -> max acc (Array.length vars))
              0 buckets
          in
          let busiest =
            float_of_int biggest /. float_of_int (Array.length mix)
          in
          let speedup = median arm_ratios.(i) in
          note_arm ~replicas
            ~wall:(median arm_walls.(i))
            ~qps:(qps1 *. speedup) ~speedup ~answered:arm_answered.(i)
            ~completed:arm_completed.(i) ~busiest
            ~solve_p95:(p95_us arm_solves.(i)))
        arm_buckets;
      (* Telemetry-driven rebalance, modelled: the placement the cluster
         boots with knows only request counts (the uniform profile the
         CLI builds), while the router's live profile weights each
         variable by its observed solve cost. Re-running the seed scan
         against the observed profile — exactly what the router's
         rebalance tick does — must never leave the busiest shard worse
         off, and Shard_map.diff_owners prices the migration. *)
      let load_uniform = Array.make (P.Pag.n_vars b.P.Suite.pag) 0 in
      Array.iter
        (fun v -> load_uniform.(v) <- load_uniform.(v) + 1)
        mix;
      List.iter
        (fun replicas ->
          let rt0 = Unix.gettimeofday () in
          let map0 =
            P.Shard_map.of_plan_balanced ~candidates:64 ~n_shards:replicas
              ~load:load_uniform plan
          in
          let before = P.Shard_map.busiest_share map0 ~load in
          let map1 = P.Shard_map.rebalance ~candidates:64 map0 ~load in
          let after = P.Shard_map.busiest_share map1 ~load in
          let migrated = List.length (P.Shard_map.diff_owners map0 map1) in
          let components = P.Shard_map.n_keys map0 in
          let rwall = Unix.gettimeofday () -. rt0 in
          cluster_entries :=
            P.Json.Obj
              [
                ("section", P.Json.String "serve_cluster_rebalance");
                ("bench", P.Json.String name);
                ("replicas", P.Json.Int replicas);
                ("busiest_before", P.Json.Float before);
                ("busiest_after", P.Json.Float after);
                ("migrated", P.Json.Int migrated);
                ("components", P.Json.Int components);
                ("wall_seconds", P.Json.Float rwall);
              ]
            :: !cluster_entries;
          rebalance_rows :=
            [
              name;
              string_of_int replicas;
              T.fmt_int components;
              T.fmt_int migrated;
              T.fmt_float ~decimals:2 before;
              T.fmt_float ~decimals:2 after;
            ]
            :: !rebalance_rows)
        arms;
      (* Join warm-up: a replica re-admitted after a drain (or freshly
         added) either solves from scratch or installs a running donor's
         Finished-only snapshot first. *)
      let donor = mk_service b in
      let _ = run_stream donor mix in
      let snapshot_text, snapshot_records =
        match P.Svc_engine.export_snapshot (P.Service.engine donor) with
        | Ok (text, n) -> (text, n)
        | Error e -> failwith ("serve_cluster: snapshot export failed: " ^ e)
      in
      let first = Array.sub mix 0 (min 100 (Array.length mix)) in
      let join_side ~warm =
        let service = mk_service b in
        if warm then begin
          match P.Service.import_snapshot service snapshot_text with
          | Ok _ -> ()
          | Error e ->
              failwith ("serve_cluster: snapshot import failed: " ^ e)
        end;
        let _, _, completed, solves = run_stream service first in
        (completed, p95_us (List.map snd solves))
      in
      let jt0 = Unix.gettimeofday () in
      let cold_completed, cold_p95 = join_side ~warm:false in
      let warm_completed, warm_p95 = join_side ~warm:true in
      let join_wall = Unix.gettimeofday () -. jt0 in
      cluster_entries :=
        P.Json.Obj
          [
            ("section", P.Json.String "serve_cluster_join");
            ("bench", P.Json.String name);
            ("requests", P.Json.Int (Array.length first));
            ("cold_completed", P.Json.Int cold_completed);
            ("warm_completed", P.Json.Int warm_completed);
            ("cold_solve_p95_us", P.Json.Float cold_p95);
            ("warm_solve_p95_us", P.Json.Float warm_p95);
            ("snapshot_records", P.Json.Int snapshot_records);
            ("wall_seconds", P.Json.Float join_wall);
          ]
        :: !cluster_entries;
      join_rows :=
        [
          name;
          T.fmt_int snapshot_records;
          T.fmt_float ~decimals:0 cold_p95;
          T.fmt_float ~decimals:0 warm_p95;
          T.fmt_float ~decimals:1
            (if warm_p95 > 0.0 then cold_p95 /. warm_p95 else 0.0);
        ]
        :: !join_rows)
    ms;
  T.render
    ~header:
      [
        "Benchmark"; "replicas"; "#req"; "req/s"; "speedup"; "p95 us";
        "busiest";
      ]
    Format.std_formatter (List.rev !scale_rows);
  Format.printf
    "@.-- telemetry-driven rebalance: uniform placement vs observed-cost \
     re-scan --@.@.";
  T.render
    ~header:
      [
        "Benchmark"; "replicas"; "components"; "migrated"; "busiest before";
        "busiest after";
      ]
    Format.std_formatter (List.rev !rebalance_rows);
  Format.printf "@.-- joining replica: cold vs snapshot-warmed --@.@.";
  T.render
    ~header:
      [ "Benchmark"; "snap recs"; "cold p95 us"; "warm p95 us"; "x" ]
    Format.std_formatter (List.rev !join_rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per table/figure kernel.         *)

let micro ms =
  Format.printf
    "@.== Bechamel micro-benchmarks (kernel of each experiment) ==@.@.";
  let open Bechamel in
  let m =
    match
      List.find_opt
        (fun m -> m.bench.P.Suite.profile.P.Profile.name = "luindex")
        ms
    with
    | Some m -> m
    | None -> List.hd ms
  in
  let bench = m.bench in
  let pag = bench.P.Suite.pag in
  let queries = bench.P.Suite.queries in
  let some_query = queries.(Array.length queries / 2) in
  let mk_session ?hooks () =
    let ctx_store = P.Ctx.create_store () in
    P.Solver.make_session ?hooks ~config:solver_config ~ctx_store pag
  in
  let tests =
    [
      (* Table I kernel: one sequential query (Algorithm 1). *)
      Test.make ~name:"table1/seq_query"
        (Staged.stage (fun () ->
             let s = mk_session () in
             ignore (P.Solver.points_to s some_query)));
      (* Fig. 6 kernel: one query against a warm jmp store (Algorithm 2). *)
      Test.make ~name:"fig6/shared_query"
        (Staged.stage
           (let store = P.Jmp_store.create ~tau_f ~tau_u () in
            let s = mk_session ~hooks:(P.Jmp_store.hooks store) () in
            fun () -> ignore (P.Solver.points_to s some_query)));
      (* Fig. 7 kernel: jmp store insert + lookup. *)
      Test.make ~name:"fig7/jmp_store_ops"
        (Staged.stage
           (let store = P.Jmp_store.create ~tau_f:1 ~tau_u:1 () in
            let hooks = P.Jmp_store.hooks store in
            let ctx = P.Ctx.empty in
            let i = ref 0 in
            fun () ->
              incr i;
              let v = !i land 1023 in
              hooks.P.Hooks.record_finished P.Hooks.Bwd v ctx ~cost:50
                ~targets:[||];
              ignore (hooks.P.Hooks.lookup P.Hooks.Bwd v ctx ~steps:0)));
      (* Fig. 8 kernel: query-group scheduling. *)
      Test.make ~name:"fig8/schedule_build"
        (Staged.stage (fun () ->
             ignore
               (P.Schedule.build ~pag ~type_level:bench.P.Suite.type_level
                  queries)));
      (* Table II kernel: whole-program Andersen. *)
      Test.make ~name:"table2/andersen_solve"
        (Staged.stage (fun () -> ignore (P.Andersen.solve pag)));
    ]
  in
  let grouped = Test.make_grouped ~name:"parcfl" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name o ->
      let est =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  let rows = List.sort compare !rows in
  T.render ~header:[ "kernel"; "ns/run" ] Format.std_formatter
    (List.map (fun (n, e) -> [ n; T.fmt_float ~decimals:0 e ]) rows)

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every run the sections above consume, as   *)
(* one bench-results JSON (see Parcfl.Bench_json). Written to           *)
(* bench/results/latest.json and mirrored at the repo root as           *)
(* BENCH_parcfl.json so CI and plotting scripts have a stable path.     *)

(* ------------------------------------------------------------------ *)
(* O(1) oracle tier: the same 400-query mix against two in-process      *)
(* services that differ only in [config.oracle]. The off arm's          *)
(* population is its real solves (cache hits carry an all-zero          *)
(* breakdown and are excluded); the on arm answers every request from   *)
(* the oracle, so all 400 measured latencies enter its population —     *)
(* duplicates included, because the tier has no cache in front of it.   *)
(* Per-request answers are tabled by id and compared across arms:       *)
(* [identical_answers] counts requests whose (var, objects) payloads    *)
(* agree exactly, the differential the regress gate holds at no-drop.   *)

let oracle_entries : P.Json.t list ref = ref []

let serve_oracle ms =
  let ms = ablation_sample ms in
  Format.printf "@.== Service: O(1) oracle tier vs demand solver ==@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let name = b.P.Suite.profile.P.Profile.name in
        let mix = P.Suite.query_mix b ~n:400 in
        let run_side ~oracle =
          let service =
            P.Service.create
              ~config:
                {
                  P.Service.default_config with
                  P.Service.threads = 2;
                  max_batch = 32;
                  context_sensitive = false;
                  oracle;
                  tau_f = Some tau_f;
                  tau_u = Some tau_u;
                  max_budget = budget;
                }
              ~type_level:b.P.Suite.type_level b.P.Suite.pag
          in
          let completed = ref 0 and solves = ref [] in
          let answers = Hashtbl.create 512 in
          let note r =
            match r with
            | P.Svc_protocol.Answer { id; var; objects; breakdown; _ } ->
                incr completed;
                Hashtbl.replace answers id (var, objects);
                if oracle || breakdown.P.Svc_span.bd_solve_us > 0.0 then
                  solves := breakdown.P.Svc_span.bd_solve_us :: !solves
            | _ -> ()
          in
          Array.iteri
            (fun i v ->
              P.Service.submit service ~now:(Unix.gettimeofday ())
                ~respond:note
                (P.Svc_protocol.Query
                   {
                     id = i;
                     var = Printf.sprintf "#%d" v;
                     budget = None;
                     deadline_ms = None;
                     trace = None;
                   });
              ignore (P.Service.pump service ~now:(Unix.gettimeofday ())))
            mix;
          P.Service.drain service ~now:(Unix.gettimeofday ());
          let svc_m = P.Service.metrics service in
          let hits = P.Svc_metrics.get svc_m P.Svc_metrics.Oracle_hit in
          let falls = P.Svc_metrics.get svc_m P.Svc_metrics.Oracle_fallback in
          let shape =
            match P.Svc_engine.oracle (P.Service.engine service) with
            | Some o ->
                ( P.Oracle.distinct_rows o,
                  P.Oracle.compressed_bytes o,
                  P.Oracle.build_seconds o )
            | None -> (0, 0, 0.0)
          in
          P.Service.shutdown service;
          (!completed, p95_us !solves, answers, hits, falls, shape)
        in
        let t0 = Unix.gettimeofday () in
        let off_completed, fallback_p95, off_answers, _, _, _ =
          run_side ~oracle:false
        in
        let on_completed, oracle_p95, on_answers, hits, falls, shape =
          run_side ~oracle:true
        in
        let distinct_rows, compressed_bytes, build_seconds = shape in
        let wall = Unix.gettimeofday () -. t0 in
        let requests = Array.length mix in
        let identical = ref 0 in
        for i = 0 to requests - 1 do
          match (Hashtbl.find_opt off_answers i, Hashtbl.find_opt on_answers i)
          with
          | Some a, Some b when a = b -> incr identical
          | _ -> ()
        done;
        let hit_rate =
          if requests = 0 then 0.0
          else float_of_int hits /. float_of_int requests
        in
        oracle_entries :=
          P.Json.Obj
            [
              ("section", P.Json.String "serve_oracle");
              ("bench", P.Json.String name);
              ("requests", P.Json.Int requests);
              ("off_completed", P.Json.Int off_completed);
              ("on_completed", P.Json.Int on_completed);
              ("fallback_solve_p95_us", P.Json.Float fallback_p95);
              ("oracle_solve_p95_us", P.Json.Float oracle_p95);
              ("hit_rate", P.Json.Float hit_rate);
              ("oracle_fallbacks", P.Json.Int falls);
              ("identical_answers", P.Json.Int !identical);
              ("distinct_rows", P.Json.Int distinct_rows);
              ("compressed_bytes", P.Json.Int compressed_bytes);
              ("build_seconds", P.Json.Float build_seconds);
              ("wall_seconds", P.Json.Float wall);
            ]
          :: !oracle_entries;
        [
          name;
          string_of_int requests;
          T.fmt_float ~decimals:1 fallback_p95;
          T.fmt_float ~decimals:1 oracle_p95;
          T.fmt_float ~decimals:1
            (if oracle_p95 > 0.0 then fallback_p95 /. oracle_p95 else 0.0);
          T.fmt_float ~decimals:2 hit_rate;
          Printf.sprintf "%d/%d" !identical requests;
          T.fmt_int distinct_rows;
          T.fmt_int compressed_bytes;
        ])
      ms
  in
  T.render
    ~header:
      [
        "Benchmark"; "#req"; "solver p95 us"; "oracle p95 us"; "x";
        "hit rate"; "identical"; "rows"; "bytes";
      ]
    Format.std_formatter rows

(* ------------------------------------------------------------------ *)
(* Service: the explain tier. One fact per sampled variable of the     *)
(* 400-query mix goes through the explain verb on a live service; the   *)
(* traced re-derivation's p95 and the found count are gated.            *)

let explain_entries : P.Json.t list ref = ref []

let serve_explain ms =
  let ms = ablation_sample ms in
  Format.printf "@.== Service: explain tier ==@.@.";
  let rows =
    List.map
      (fun m ->
        let b = m.bench in
        let name = b.P.Suite.profile.P.Profile.name in
        let mix = P.Suite.query_mix b ~n:400 in
        let t0 = Unix.gettimeofday () in
        let svc =
          P.Service.create
            ~config:
              {
                P.Service.default_config with
                P.Service.threads = 2;
                max_batch = 32;
                tau_f = Some tau_f;
                tau_u = Some tau_u;
                max_budget = budget;
              }
            ~type_level:b.P.Suite.type_level b.P.Suite.pag
        in
        let sample =
          Array.to_list mix |> List.sort_uniq compare
          |> List.filteri (fun i _ -> i < 32)
        in
        let facts =
          let s =
            P.Solver.make_session ~config:P.Config.default
              ~ctx_store:(P.Ctx.create_store ()) b.P.Suite.pag
          in
          List.filter_map
            (fun v ->
              match (P.Solver.points_to s v).P.Query.result with
              | P.Query.Points_to ((o, _) :: _) -> Some (v, o)
              | _ -> None)
            sample
        in
        let explain_lats = ref [] and found = ref 0 in
        List.iteri
          (fun i (v, o) ->
            P.Service.submit svc ~now:(Unix.gettimeofday ())
              ~respond:(fun r ->
                match r with
                | P.Svc_protocol.Explain_reply
                    { found = f; latency_us; _ } ->
                    if f then incr found;
                    explain_lats := latency_us :: !explain_lats
                | _ -> ())
              (P.Svc_protocol.Explain
                 {
                   id = i;
                   var = Printf.sprintf "#%d" v;
                   obj = Printf.sprintf "#%d" o;
                 });
            ignore (P.Service.pump svc ~now:(Unix.gettimeofday ())))
          facts;
        P.Service.shutdown svc;
        let wall = Unix.gettimeofday () -. t0 in
        let explain_p95 = p95_us !explain_lats in
        explain_entries :=
          P.Json.Obj
            [
              ("section", P.Json.String "serve_explain");
              ("bench", P.Json.String name);
              ("explains", P.Json.Int (List.length facts));
              ("explains_found", P.Json.Int !found);
              ("explain_p95_us", P.Json.Float explain_p95);
              ("wall_seconds", P.Json.Float wall);
            ]
          :: !explain_entries;
        [
          name;
          string_of_int (List.length facts);
          string_of_int !found;
          T.fmt_float ~decimals:1 explain_p95;
        ])
      ms
  in
  T.render
    ~header:[ "Benchmark"; "#expl"; "found"; "explain p95 us" ]
    Format.std_formatter rows

(* ------------------------------------------------------------------ *)

(* History files kept by --keep N (newest first); None leaves every run. *)
let keep_history : int option ref = ref None

let emit_results ms =
  let entries =
    List.concat_map
      (fun m ->
        let name = m.bench.P.Suite.profile.P.Profile.name in
        let entry r = P.Report.to_json ~bench:name r in
        [
          entry (Lazy.force m.seq_real);
          entry (Lazy.force m.d1_real);
          entry (Lazy.force m.dq1_real);
          entry (Lazy.force m.naive16_sim);
          entry (Lazy.force m.d16_sim);
        ]
        @ List.map (fun t -> entry (m.dq_sim t)) [ 1; 2; 4; 8; 16 ])
      ms
    @ List.rev !serve_entries
    @ List.rev !coldwarm_entries
    @ List.rev !cluster_entries
    @ List.rev !oracle_entries
    @ List.rev !explain_entries
  in
  let meta =
    [
      ("budget", P.Json.Int budget);
      ("tau_f", P.Json.Int tau_f);
      ("tau_u", P.Json.Int tau_u);
      ("sim_threads", P.Json.Int sim_threads);
      ("benchmarks", P.Json.Int (List.length ms));
    ]
  in
  (* latest.json is the stable handle CI diffs against; the timestamped
     sibling is an append-only history of past runs on this checkout, so
     a refreshed latest never erases the run it replaced. *)
  let stamp =
    let t = Unix.gmtime (Unix.gettimeofday ()) in
    Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
      t.Unix.tm_sec
  in
  let stamped_path = Printf.sprintf "bench/results/%s.json" stamp in
  List.iter
    (fun path ->
      P.Bench_json.write ~path ~meta entries;
      Format.printf "results -> %s@." path)
    [ "bench/results/latest.json"; stamped_path; "BENCH_parcfl.json" ];
  (match !keep_history with
  | None -> ()
  | Some keep ->
      List.iter
        (fun f -> Format.printf "pruned bench/results/%s@." f)
        (P.Bench_json.prune_history ~dir:"bench/results" ~keep:(max 1 keep)));
  (* History hygiene invariant: the stable handle and the newest history
     file are the same document. A divergence means a concurrent writer or
     a pruning bug ate the run we just recorded — fail loudly. *)
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let newest =
    Sys.readdir "bench/results" |> Array.to_list
    |> List.filter P.Bench_json.is_timestamped
    |> List.sort (fun a b -> compare b a)
    |> function
    | f :: _ -> Filename.concat "bench/results" f
    | [] -> stamped_path
  in
  if read newest <> read "bench/results/latest.json" then begin
    Format.eprintf "bench: latest.json disagrees with newest history %s@."
      newest;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse sections benches = function
    | "-b" :: name :: rest -> parse sections (name :: benches) rest
    | "--keep" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k -> keep_history := Some k
        | None -> Format.printf "bad --keep %S (ignored)@." n);
        parse sections benches rest
    | s :: rest -> parse (s :: sections) benches rest
    | [] -> (List.rev sections, List.rev benches)
  in
  let sections, benches = parse [] [] args in
  let sections =
    if sections = [] then
      [
        "table1"; "table2"; "fig6"; "fig7"; "fig8"; "mem"; "ablate";
        "refinecmp"; "serve"; "serve_coldwarm"; "serve_cluster";
        "serve_oracle"; "serve_explain"; "micro";
      ]
    else sections
  in
  let profiles =
    if benches = [] then P.Profile.all else List.filter_map P.Profile.find benches
  in
  Format.printf
    "parcfl evaluation harness: budget B=%d, tau_f=%d, tau_u=%d, %d virtual \
     cores, %d benchmarks@."
    budget tau_f tau_u sim_threads (List.length profiles);
  let ms = List.map (fun p -> make_measurements (P.Suite.build p)) profiles in
  List.iter
    (fun section ->
      match section with
      | "table1" -> table1 ms
      | "table2" -> table2 ms
      | "fig6" -> fig6 ms
      | "fig7" -> fig7 ms
      | "fig8" -> fig8 ms
      | "mem" -> mem ms
      | "ablate" -> ablate ms
      | "refinecmp" -> refinecmp ms
      | "serve" -> serve ms
      | "serve_coldwarm" -> serve_coldwarm ms
      | "serve_cluster" -> serve_cluster ms
      | "serve_oracle" -> serve_oracle ms
      | "serve_explain" -> serve_explain ms
      | "micro" -> micro ms
      | s -> Format.printf "unknown section %S (skipped)@." s)
    sections;
  emit_results ms;
  Format.printf "@.done.@."

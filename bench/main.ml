(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section IV) on the built-in 20-benchmark suite.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1 fig6  -- selected sections
     dune exec bench/main.exe -- -b h2 fig8   -- restrict benchmarks
     dune exec bench/main.exe -- --keep 20    -- prune history beyond 20 runs

   Sections: table1 table2 fig6 fig7 fig8 mem ablate refinecmp micro.
   Serving numbers come from real processes over real sockets
   (python3 perfbench/run.py); the service's deterministic invariants
   are dune runtest cases.

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
  d1_store : P.Jmp_store.t;  (* d1_real's jmp store, read by fig7 *)
  dq1_real : P.Report.t Lazy.t;
  d1_real_noopt : P.Report.t Lazy.t;
  d1_noopt_store : P.Jmp_store.t;
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
  let run ?(tau_f = tau_f) ?(tau_u = tau_u) ?store mode threads =
    (* a caller-owned jmp store comes with the context store it interns in *)
    let ctx_store = Option.map (fun _ -> P.Ctx.create_store ()) store in
    P.Runner.run ~tau_f ~tau_u ?store ?ctx_store ~type_level ~solver_config
      ~mode ~threads ~queries pag
  in
  let simulate ?(tau_f = tau_f) ?(tau_u = tau_u) mode threads =
    P.Runner.simulate ~tau_f ~tau_u ~type_level ~solver_config ~mode ~threads
      ~queries pag
  in
  let d1_store = P.Jmp_store.create ~tau_f ~tau_u () in
  let d1_noopt_store = P.Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  {
    bench;
    seq_real = lazy (run P.Mode.Seq 1);
    d1_real = lazy (run ~store:d1_store P.Mode.Share 1);
    d1_store;
    dq1_real = lazy (run P.Mode.Share_sched 1);
    d1_real_noopt = lazy (run ~store:d1_noopt_store P.Mode.Share 1);
    d1_noopt_store;
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

(* log2 buckets of steps saved per jmp edge; the last absorbs overflow. *)
let fig7_buckets = 17

let fig7 ms =
  Format.printf
    "@.== Fig. 7: histogram of jmp edges by steps saved (all benchmarks) ==@.@.";
  let agg run store =
    let fin = Array.make fig7_buckets 0 and unf = Array.make fig7_buckets 0 in
    List.iter
      (fun m ->
        ignore (Lazy.force (run m));
        let f, u = P.Jmp_store.histogram (store m) ~buckets:fig7_buckets in
        Array.iteri (fun i v -> fin.(i) <- fin.(i) + v) f;
        Array.iteri (fun i v -> unf.(i) <- unf.(i) + v) u)
      ms;
    (fin, unf)
  in
  let fin_opt, unf_opt = agg (fun m -> m.d1_real) (fun m -> m.d1_store) in
  let fin_all, unf_all =
    agg (fun m -> m.d1_real_noopt) (fun m -> m.d1_noopt_store)
  in
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
     whole-program Andersen (worklist) and the bitset kernel on the same \
     PAGs, all wall-clock:@.@.";
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
        let t0 = Unix.gettimeofday () in
        let a = P.Andersen.solve pag in
        let t_and = Unix.gettimeofday () -. t0 in
        let t0 = Unix.gettimeofday () in
        let k = P.Matrix.solve pag in
        let t_kernel = Unix.gettimeofday () -. t0 in
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
        "Benchmark"; "And.seq(s)"; "pops"; "Kernel(s)"; "rounds";
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

  (* 4. Points-to cycle elimination (paper Section IV-A). *)
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
      (* The offline pass behind the oracle tier: condensed kernel plus
         row compression. *)
      Test.make ~name:"table2/oracle_build"
        (Staged.stage (fun () -> ignore (P.Oracle.build ~generation:0 pag)));
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
  in
  let meta =
    [
      ("budget", P.Json.Int budget);
      ("tau_f", P.Json.Int tau_f);
      ("tau_u", P.Json.Int tau_u);
      ("sim_threads", P.Json.Int sim_threads);
      ("nproc", P.Json.Int (Domain.recommended_domain_count ()));
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
        "refinecmp"; "micro";
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
      | "micro" -> micro ms
      | s -> Format.printf "unknown section %S (skipped)@." s)
    sections;
  emit_results ms;
  Format.printf "@.done.@."

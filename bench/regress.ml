(* Bench regression gate: diff a fresh bench-results document against a
   committed baseline and fail loudly when a tracked metric regressed.

     dune exec bench/regress.exe                          -- default paths
     dune exec bench/regress.exe -- --baseline B --latest L
     dune exec bench/regress.exe -- --self-test

   Entries are matched by identity key (bench/mode/threads/sim, or
   bench/section for service rows); only the intersection is compared, so a
   partial latest run — e.g. the CI workload, one benchmark — still gates
   against a full baseline. Per-metric rules:

     wall_seconds      ratio > 2.0 AND absolute growth > 0.05 s
                       (wall clock is the only nondeterministic metric;
                        the absolute floor keeps sub-millisecond rows from
                        tripping on scheduler noise)
     steps_walked      growth > 2% (deterministic at fixed seed)
     sim_makespan      growth > 5% (deterministic discrete-event model)
     minor_words       growth > 10% (deterministic: allocation per query
                        depends only on code paths, not timing — a jump
                        means an allocation crept back into the hot path)
     steps_per_second  drop below 1/2 of baseline, gated on BOTH walls
                        being >= 0.05 s (same noise floor as wall_seconds:
                        sub-50ms rates are dominated by fixed costs)
     completed         any drop
     requests          any drop (service rows)
     completed_with_breakdown
                       any drop (service rows: answers whose stage
                        breakdown accounts for the reported latency — a
                        drop means span stamping broke)
     cold_completed /
     warm_completed    any drop (serve_coldwarm rows; both sides are
                        deterministic at fixed seed and budget)
     warm_solve_p95_us must stay strictly below cold_solve_p95_us in the
                       fresh run wherever the baseline shows a decisive
                       win (warm <= cold/2). On budget-bound benches warm
                       p95 is legitimately higher — cold gives up at the
                       step budget while warm replays full seeded target
                       sets and completes more queries — so only the
                       workloads where pre-seeding decisively won (the CI
                       workload included) are held to keep winning.
                       (Also gates serve_cluster_join rows, which carry
                        the same field names: a snapshot-warmed joining
                        replica must keep beating a cold one.)
     speedup           serve_cluster rows: a cluster arm must keep its
                       acceptance floor — 1.6x at 2 replicas, 2.5x at 4,
                       3.0x at 8 — wherever the committed baseline meets
                       it. Armed per entry so a host that never reached
                       the floor is not gated into permanent failure;
                       once met, losing the floor means the shard
                       partition's balance or affinity regressed.
     busiest_after     serve_cluster_rebalance rows: the observed-profile
                       re-scan must never leave the busiest shard with a
                       larger load share than the static placement it
                       started from (checked within the fresh run — the
                       strict-improvement incumbent rule makes this a
                       structural invariant, so any violation is a bug,
                       not noise).
     oracle_solve_p95_us
                       serve_oracle rows: must stay strictly below
                       fallback_solve_p95_us in the fresh run wherever the
                       committed baseline shows the oracle winning
                       decisively (oracle <= fallback/2 — true of the CI
                       workload). Same arming philosophy as the coldwarm
                       gate.
     hit_rate          serve_oracle rows: where the baseline meets the 0.9
                       floor, the fresh run must too — a lost hit rate
                       means budget-free traffic stopped reaching the
                       tier (tier wiring or oracle liveness regressed).
     on_completed / off_completed / identical_answers
                       any drop (serve_oracle rows; identical_answers is
                       the oracle-vs-solver differential — a drop means
                       the tier changed an answer).

   Exit status: 0 no regression, 1 regression found, 2 usage or I/O error. *)

module J = Parcfl.Json

let wall_ratio = 2.0
let wall_floor_s = 0.05
let steps_tol = 0.02
let makespan_tol = 0.05
let minor_words_tol = 0.10
let sps_ratio = 2.0

(* ------------------------------------------------------------------ *)
(* Field access *)

let num field entry =
  match J.member field entry with
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

let str field entry =
  match J.member field entry with Some (J.String s) -> Some s | _ -> None

(* Identity key for matching an entry across the two documents. *)
let key entry =
  let bench = Option.value ~default:"?" (str "bench" entry) in
  match str "section" entry with
  | Some section ->
      (* serve_cluster emits one row per replica count for one bench. *)
      let replicas =
        match J.member "replicas" entry with
        | Some (J.Int r) -> Printf.sprintf "/r%d" r
        | _ -> ""
      in
      Printf.sprintf "%s/%s%s" bench section replicas
  | None ->
      let mode = Option.value ~default:"?" (str "mode" entry) in
      let threads =
        match J.member "threads" entry with
        | Some (J.Int t) -> string_of_int t
        | _ -> "?"
      in
      let sim =
        match J.member "sim" entry with
        | Some (J.Bool true) -> "sim"
        | _ -> "real"
      in
      Printf.sprintf "%s/%s/t%s/%s" bench mode threads sim

(* ------------------------------------------------------------------ *)
(* Per-entry comparison: returns human-readable failure lines. *)

let check_wall k b l acc =
  match (num "wall_seconds" b, num "wall_seconds" l) with
  | Some bw, Some lw
    when bw >= 0.0 && lw > bw *. wall_ratio && lw -. bw > wall_floor_s ->
      Printf.sprintf "%s: wall_seconds %.4f -> %.4f (> %.1fx and > +%.2fs)" k
        bw lw wall_ratio wall_floor_s
      :: acc
  | _ -> acc

let check_growth field tol k b l acc =
  match (num field b, num field l) with
  | Some bv, Some lv when lv > (bv *. (1.0 +. tol)) +. 1e-9 ->
      Printf.sprintf "%s: %s %.0f -> %.0f (> +%.0f%%)" k field bv lv
        (tol *. 100.0)
      :: acc
  | _ -> acc

let check_sps k b l acc =
  match
    (num "steps_per_second" b, num "steps_per_second" l,
     num "wall_seconds" b, num "wall_seconds" l)
  with
  | Some bs, Some ls, Some bw, Some lw
    when bw >= wall_floor_s && lw >= wall_floor_s && ls *. sps_ratio < bs ->
      Printf.sprintf "%s: steps_per_second %.0f -> %.0f (< 1/%.1fx)" k bs ls
        sps_ratio
      :: acc
  | _ -> acc

let check_no_drop field k b l acc =
  match (num field b, num field l) with
  | Some bv, Some lv when lv < bv ->
      Printf.sprintf "%s: %s dropped %.0f -> %.0f" k field bv lv :: acc
  | _ -> acc

(* Where the committed baseline shows pre-seeding decisively winning
   (warm p95 at most half the cold one — true of the CI workload), the
   fresh run must still have warm strictly below cold: losing a 2x+
   margin entirely means the seeds stopped serving traffic. Entries whose
   baseline never had that margin (budget-bound benches, where warm
   legitimately pays more wall time to answer more queries) are not
   gated on latency — only on their completion counts above. *)
let coldwarm_armed_ratio = 0.5

let check_coldwarm k b l acc =
  match
    ( num "cold_solve_p95_us" b, num "warm_solve_p95_us" b,
      num "cold_solve_p95_us" l, num "warm_solve_p95_us" l )
  with
  | Some bc, Some bw, Some lc, Some lw
    when bw <= bc *. coldwarm_armed_ratio && lw >= lc ->
      Printf.sprintf
        "%s: warm_solve_p95_us %.0f did not beat cold_solve_p95_us %.0f \
         (baseline won %.0f vs %.0f)"
        k lw lc bw bc
      :: acc
  | _ -> acc

(* Cluster scale-out acceptance floors, armed per entry where the
   committed baseline itself meets the floor (same philosophy as the
   coldwarm latency gate: a host that never reached the bar is not gated
   into permanent failure, but a host that did must not lose it). *)
let cluster_floor = function 2 -> 1.6 | 4 -> 2.5 | 8 -> 3.0 | _ -> 0.0

let check_cluster_speedup k b l acc =
  match (str "section" b, J.member "replicas" b) with
  | Some "serve_cluster", Some (J.Int r) -> (
      let floor = cluster_floor r in
      match (num "speedup" b, num "speedup" l) with
      | Some bs, Some ls when floor > 0.0 && bs >= floor && ls < floor ->
          Printf.sprintf
            "%s: speedup %.2fx fell below the %.1fx floor (baseline %.2fx)"
            k ls floor bs
          :: acc
      | _ -> acc)
  | _ -> acc

(* A telemetry-driven re-scan is built on a strict-improvement incumbent
   rule, so busiest_after > busiest_before in a fresh run is a broken
   rebalancer regardless of what the baseline says — the check reads
   only the latest entry. *)
let check_rebalance_not_worse k _b l acc =
  match str "section" l with
  | Some "serve_cluster_rebalance" -> (
      match (num "busiest_before" l, num "busiest_after" l) with
      | Some before, Some after when after > before +. 1e-9 ->
          Printf.sprintf
            "%s: rebalance made the busiest shard worse (%.3f -> %.3f)" k
            before after
          :: acc
      | _ -> acc)
  | _ -> acc

(* The oracle tier's latency gate mirrors the coldwarm one: armed per
   entry where the committed baseline shows a decisive win (oracle p95 at
   most half the fallback p95), and the floor-style hit-rate gate arms
   where the baseline itself meets the floor. *)
let oracle_armed_ratio = 0.5
let oracle_hit_rate_floor = 0.9

let check_oracle k b l acc =
  match str "section" b with
  | Some "serve_oracle" ->
      let acc =
        match
          ( num "fallback_solve_p95_us" b, num "oracle_solve_p95_us" b,
            num "fallback_solve_p95_us" l, num "oracle_solve_p95_us" l )
        with
        | Some bf, Some bo, Some lf, Some lo
          when bo <= bf *. oracle_armed_ratio && lo >= lf ->
            Printf.sprintf
              "%s: oracle_solve_p95_us %.0f did not beat \
               fallback_solve_p95_us %.0f (baseline won %.0f vs %.0f)"
              k lo lf bo bf
            :: acc
        | _ -> acc
      in
      (match (num "hit_rate" b, num "hit_rate" l) with
      | Some bh, Some lh
        when bh >= oracle_hit_rate_floor && lh < oracle_hit_rate_floor ->
          Printf.sprintf
            "%s: hit_rate %.2f fell below the %.2f floor (baseline %.2f)" k
            lh oracle_hit_rate_floor bh
          :: acc
      | _ -> acc)
  | _ -> acc

(* The explain tier is a cold diagnostic path — a traced re-derivation
   with data sharing off — so its latency gate is deliberately loose:
   p95 bounded by twice the committed baseline plus a 50 ms absolute
   floor. Tightening it would gate provenance quality on scheduler
   noise; the tier's correctness is the test suite's job. *)
let explain_ratio = 2.0
let explain_floor_us = 50_000.0

let check_explain k b l acc =
  match str "section" b with
  | Some "serve_explain" -> (
      match (num "explain_p95_us" b, num "explain_p95_us" l) with
      | Some bp, Some lp when lp > (bp *. explain_ratio) +. explain_floor_us
        ->
          Printf.sprintf
            "%s: explain_p95_us %.0f exceeds %.1fx baseline %.0f + %.0fus \
             floor"
            k lp explain_ratio bp explain_floor_us
          :: acc
      | _ -> acc)
  | _ -> acc

let check_entry k baseline latest =
  []
  |> check_wall k baseline latest
  |> check_growth "steps_walked" steps_tol k baseline latest
  |> check_growth "sim_makespan" makespan_tol k baseline latest
  |> check_growth "minor_words" minor_words_tol k baseline latest
  |> check_sps k baseline latest
  |> check_no_drop "completed" k baseline latest
  |> check_no_drop "requests" k baseline latest
  |> check_no_drop "completed_with_breakdown" k baseline latest
  |> check_no_drop "cold_completed" k baseline latest
  |> check_no_drop "warm_completed" k baseline latest
  |> check_no_drop "off_completed" k baseline latest
  |> check_no_drop "on_completed" k baseline latest
  |> check_no_drop "identical_answers" k baseline latest
  |> check_no_drop "explains_found" k baseline latest
  |> check_coldwarm k baseline latest
  |> check_oracle k baseline latest
  |> check_cluster_speedup k baseline latest
  |> check_rebalance_not_worse k baseline latest
  |> check_explain k baseline latest
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Document comparison *)

let entries doc =
  match J.member "entries" doc with
  | Some (J.List es) -> Ok es
  | _ -> Error "document has no \"entries\" list"

type outcome = { compared : int; skipped : int; failures : string list }

let compare_docs ~baseline ~latest =
  match (entries baseline, entries latest) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("latest: " ^ e)
  | Ok base_entries, Ok latest_entries ->
      let by_key = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace by_key (key e) e) latest_entries;
      let compared = ref 0 and skipped = ref 0 and failures = ref [] in
      List.iter
        (fun b ->
          let k = key b in
          match Hashtbl.find_opt by_key k with
          | None -> incr skipped
          | Some l ->
              incr compared;
              failures := !failures @ check_entry k b l)
        base_entries;
      if !compared = 0 then
        Error "no comparable entries (baseline and latest do not overlap)"
      else
        Ok { compared = !compared; skipped = !skipped; failures = !failures }

(* ------------------------------------------------------------------ *)
(* I/O *)

let read_doc path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text -> (
      match J.of_string text with
      | Ok doc -> Ok doc
      | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e))

(* ------------------------------------------------------------------ *)
(* Self-test: the gate must fire on doctored regressions and stay quiet on
   noise below the tolerances. Synthetic documents only — no files read. *)

let self_test () =
  let entry ?section ~bench ~mode ~threads ~sim ~wall ~steps ~completed
      ?makespan ?minor_words ?sps ?with_breakdown () =
    J.Obj
      ((match section with
       | Some s -> [ ("section", J.String s) ]
       | None -> [])
      @ [
          ("bench", J.String bench);
          ("mode", J.String mode);
          ("threads", J.Int threads);
          ("sim", J.Bool sim);
          ("wall_seconds", J.Float wall);
          ("steps_walked", J.Int steps);
          ("completed", J.Int completed);
          ( "sim_makespan",
            match makespan with Some m -> J.Int m | None -> J.Null );
        ]
      @ (match minor_words with
        | Some m -> [ ("minor_words", J.Int m) ]
        | None -> [])
      @ (match sps with
        | Some s -> [ ("steps_per_second", J.Float s) ]
        | None -> [])
      @
      match with_breakdown with
      | Some n -> [ ("completed_with_breakdown", J.Int n) ]
      | None -> [])
  in
  let coldwarm ?(bench = "b") ?(cold_p95 = 900.0) ?(warm_p95 = 120.0)
      ?(cold_ok = 380) ?(warm_ok = 390) () =
    J.Obj
      [
        ("section", J.String "serve_coldwarm");
        ("bench", J.String bench);
        ("requests", J.Int 400);
        ("cold_completed", J.Int cold_ok);
        ("warm_completed", J.Int warm_ok);
        ("cold_solve_p95_us", J.Float cold_p95);
        ("warm_solve_p95_us", J.Float warm_p95);
        ("wall_seconds", J.Float 0.5);
      ]
  in
  let cluster ?(bench = "b") ?(replicas = 2) ?(speedup = 1.9)
      ?(requests = 400) () =
    J.Obj
      [
        ("section", J.String "serve_cluster");
        ("bench", J.String bench);
        ("replicas", J.Int replicas);
        ("requests", J.Int requests);
        ("completed", J.Int requests);
        ("qps", J.Float (1000.0 *. speedup));
        ("speedup", J.Float speedup);
        ("wall_seconds", J.Float 0.1);
      ]
  in
  let oracle ?(bench = "b") ?(fallback_p95 = 800.0) ?(oracle_p95 = 40.0)
      ?(hit_rate = 1.0) ?(off_ok = 400) ?(on_ok = 400) ?(identical = 400) () =
    J.Obj
      [
        ("section", J.String "serve_oracle");
        ("bench", J.String bench);
        ("requests", J.Int 400);
        ("off_completed", J.Int off_ok);
        ("on_completed", J.Int on_ok);
        ("fallback_solve_p95_us", J.Float fallback_p95);
        ("oracle_solve_p95_us", J.Float oracle_p95);
        ("hit_rate", J.Float hit_rate);
        ("identical_answers", J.Int identical);
        ("distinct_rows", J.Int 37);
        ("wall_seconds", J.Float 0.2);
      ]
  in
  let rebalance ?(bench = "b") ?(replicas = 4) ?(before = 0.5)
      ?(after = 0.3) () =
    J.Obj
      [
        ("section", J.String "serve_cluster_rebalance");
        ("bench", J.String bench);
        ("replicas", J.Int replicas);
        ("busiest_before", J.Float before);
        ("busiest_after", J.Float after);
        ("migrated", J.Int 3);
        ("components", J.Int 40);
        ("wall_seconds", J.Float 0.001);
      ]
  in
  let explain ?(bench = "b") ?(explain_p95 = 300.0) ?(found = 24) () =
    J.Obj
      [
        ("section", J.String "serve_explain");
        ("bench", J.String bench);
        ("explains", J.Int 24);
        ("explains_found", J.Int found);
        ("explain_p95_us", J.Float explain_p95);
        ("wall_seconds", J.Float 0.1);
      ]
  in
  let doc es = J.Obj [ ("schema", J.Int 1); ("entries", J.List es) ] in
  let base =
    doc
      [
        entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:1.0
          ~steps:1000 ~completed:100 ();
        entry ~bench:"b" ~mode:"dq" ~threads:16 ~sim:true ~wall:0.001
          ~steps:800 ~completed:100 ~makespan:500 ();
        entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:1.0
          ~steps:1000 ~completed:100 ~minor_words:10000 ~sps:1000.0 ();
        entry ~section:"serve" ~bench:"b" ~mode:"-" ~threads:2 ~sim:false
          ~wall:0.5 ~steps:0 ~completed:0 ~with_breakdown:400 ();
        coldwarm ();
        (* A budget-bound bench where warm never won: latency unarmed. *)
        coldwarm ~bench:"big" ~cold_p95:800.0 ~warm_p95:3000.0 ();
        (* Cluster arms: the replicas count is part of the identity key,
           so all three rows coexist for one bench. *)
        cluster ~replicas:1 ~speedup:1.0 ();
        cluster ~replicas:2 ~speedup:1.9 ();
        cluster ~replicas:4 ~speedup:2.9 ();
        cluster ~replicas:8 ~speedup:3.4 ();
        (* A host that never met the 4-replica floor: unarmed. *)
        cluster ~bench:"slow" ~replicas:4 ~speedup:2.1 ();
        oracle ();
        (* A bench where the oracle never decisively won and the hit rate
           never met the floor: both oracle gates unarmed. *)
        oracle ~bench:"big" ~fallback_p95:100.0 ~oracle_p95:90.0
          ~hit_rate:0.5 ();
        rebalance ();
        explain ();
      ]
  in
  let expect name doc' want =
    match compare_docs ~baseline:base ~latest:doc' with
    | Error e ->
        Printf.printf "self-test %s: unexpected error: %s\n" name e;
        false
    | Ok { failures; _ } ->
        let got = List.length failures in
        if got <> want then (
          Printf.printf "self-test %s: expected %d failure(s), got %d\n" name
            want got;
          List.iter (fun f -> Printf.printf "  %s\n" f) failures;
          false)
        else true
  in
  let ok = ref true in
  let run name doc' want = if not (expect name doc' want) then ok := false in
  run "identical" base 0;
  run "wall-regression"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:3.0
           ~steps:1000 ~completed:100 ();
       ])
    1;
  (* 3x slower but the absolute growth is microseconds: noise, not a
     regression. *)
  run "wall-noise-below-floor"
    (doc
       [
         entry ~bench:"b" ~mode:"dq" ~threads:16 ~sim:true ~wall:0.003
           ~steps:800 ~completed:100 ~makespan:500 ();
       ])
    0;
  run "steps-regression"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:1.0
           ~steps:1050 ~completed:100 ();
       ])
    1;
  run "steps-improvement"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:1.0
           ~steps:900 ~completed:100 ();
       ])
    0;
  run "makespan-regression"
    (doc
       [
         entry ~bench:"b" ~mode:"dq" ~threads:16 ~sim:true ~wall:0.001
           ~steps:800 ~completed:100 ~makespan:600 ();
       ])
    1;
  run "completed-drop"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:1.0
           ~steps:1000 ~completed:99 ();
       ])
    1;
  run "minor-words-regression"
    (doc
       [
         entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:1.0
           ~steps:1000 ~completed:100 ~minor_words:11001 ~sps:1000.0 ();
       ])
    1;
  (* +9% allocation and 2x faster: both inside tolerance. *)
  run "minor-words-and-sps-within-tolerance"
    (doc
       [
         entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:1.0
           ~steps:1000 ~completed:100 ~minor_words:10900 ~sps:2000.0 ();
       ])
    0;
  run "sps-drop"
    (doc
       [
         entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:1.0
           ~steps:1000 ~completed:100 ~minor_words:10000 ~sps:400.0 ();
       ])
    1;
  (* Same throughput halving, but the run finished in 10 ms: below the
     noise floor where rates are dominated by fixed costs. *)
  run "sps-drop-below-wall-floor"
    (doc
       [
         entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:0.01
           ~steps:1000 ~completed:100 ~minor_words:10000 ~sps:400.0 ();
       ])
    0;
  (* A single lost lifecycle breakdown is a regression: spans must cover
     every answered request, not most of them. *)
  run "breakdown-drop"
    (doc
       [
         entry ~section:"serve" ~bench:"b" ~mode:"-" ~threads:2 ~sim:false
           ~wall:0.5 ~steps:0 ~completed:0 ~with_breakdown:399 ();
       ])
    1;
  run "breakdown-held"
    (doc
       [
         entry ~section:"serve" ~bench:"b" ~mode:"-" ~threads:2 ~sim:false
           ~wall:0.5 ~steps:0 ~completed:0 ~with_breakdown:400 ();
       ])
    0;
  (* Where the baseline won decisively, equal p95s are already a failure
     (the seeds stopped paying for themselves)... *)
  run "coldwarm-warm-not-faster" (doc [ coldwarm ~warm_p95:900.0 () ]) 1;
  run "coldwarm-improvement" (doc [ coldwarm ~warm_p95:60.0 () ]) 0;
  (* ...but a narrowed, still-winning margin is not one... *)
  run "coldwarm-margin-narrowed" (doc [ coldwarm ~warm_p95:850.0 () ]) 0;
  (* ...and a bench whose baseline never won is not latency-gated. *)
  run "coldwarm-unarmed"
    (doc [ coldwarm ~bench:"big" ~cold_p95:800.0 ~warm_p95:3500.0 () ])
    0;
  run "coldwarm-cold-completed-drop" (doc [ coldwarm ~cold_ok:379 () ]) 1;
  run "coldwarm-warm-completed-drop" (doc [ coldwarm ~warm_ok:389 () ]) 1;
  (* An armed cluster arm losing its acceptance floor is a regression... *)
  run "cluster-speedup-floor-lost"
    (doc [ cluster ~replicas:2 ~speedup:1.4 () ])
    1;
  run "cluster-speedup-floor-lost-at-4"
    (doc [ cluster ~replicas:4 ~speedup:2.2 () ])
    1;
  run "cluster-speedup-floor-lost-at-8"
    (doc [ cluster ~replicas:8 ~speedup:2.7 () ])
    1;
  (* ...a narrowed margin still above the floor is not one... *)
  run "cluster-margin-narrowed"
    (doc [ cluster ~replicas:2 ~speedup:1.65 () ])
    0;
  (* ...the 1-replica arm has no floor... *)
  run "cluster-one-replica-unarmed"
    (doc [ cluster ~replicas:1 ~speedup:0.9 () ])
    0;
  (* ...a baseline that never met the floor does not arm the gate... *)
  run "cluster-unarmed-host"
    (doc [ cluster ~bench:"slow" ~replicas:4 ~speedup:1.2 () ])
    0;
  (* ...and lost requests are a regression on any arm (the helper keeps
     completed = requests, so both no-drop rules fire). *)
  run "cluster-requests-drop"
    (doc [ cluster ~replicas:2 ~speedup:1.9 ~requests:399 () ])
    2;
  (* Where the baseline's oracle won decisively, equal p95s already fail... *)
  run "oracle-not-faster" (doc [ oracle ~oracle_p95:800.0 () ]) 1;
  run "oracle-improvement" (doc [ oracle ~oracle_p95:20.0 () ]) 0;
  (* ...a narrowed, still-winning margin is not a failure... *)
  run "oracle-margin-narrowed" (doc [ oracle ~oracle_p95:700.0 () ]) 0;
  (* ...and a bench whose baseline never won is not latency-gated. *)
  run "oracle-unarmed"
    (doc
       [
         oracle ~bench:"big" ~fallback_p95:100.0 ~oracle_p95:150.0
           ~hit_rate:0.5 ();
       ])
    0;
  (* An armed hit rate falling through the floor is a regression... *)
  run "oracle-hit-rate-lost" (doc [ oracle ~hit_rate:0.7 () ]) 1;
  (* ...a narrowed rate still at the floor is not... *)
  run "oracle-hit-rate-narrowed" (doc [ oracle ~hit_rate:0.9 () ]) 0;
  (* ...and a baseline that never met the floor does not arm it. *)
  run "oracle-hit-rate-unarmed"
    (doc
       [
         oracle ~bench:"big" ~fallback_p95:100.0 ~oracle_p95:90.0
           ~hit_rate:0.2 ();
       ])
    0;
  run "oracle-on-completed-drop" (doc [ oracle ~on_ok:399 () ]) 1;
  run "oracle-off-completed-drop" (doc [ oracle ~off_ok:399 () ]) 1;
  (* One changed answer between the arms is a correctness regression. *)
  run "oracle-identity-drop" (doc [ oracle ~identical:399 () ]) 1;
  (* A rebalance that holds or improves the busiest share passes... *)
  run "rebalance-not-worse-holds" (doc [ rebalance () ]) 0;
  run "rebalance-no-op" (doc [ rebalance ~after:0.5 () ]) 0;
  (* Explain: the loose 2x + 50ms bound absorbs a slow diagnostic path;
     blowing past it is a regression. *)
  run "explain-latency-regression" (doc [ explain ~explain_p95:51_000.0 () ]) 1;
  run "explain-latency-within-floor"
    (doc [ explain ~explain_p95:40_000.0 () ])
    0;
  run "explain-found-drop" (doc [ explain ~found:20 () ]) 1;
  (* ...one that makes it worse is structurally broken. *)
  run "rebalance-made-it-worse" (doc [ rebalance ~after:0.6 () ]) 1;
  run "everything-at-once"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:9.0
           ~steps:2000 ~completed:1 ();
       ])
    3;
  (match compare_docs ~baseline:base ~latest:(doc []) with
  | Error _ -> ()
  | Ok _ ->
      Printf.printf "self-test no-overlap: expected an error\n";
      ok := false);
  if !ok then (
    Printf.printf "regress self-test OK\n";
    0)
  else 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: regress [--baseline PATH] [--latest PATH] [--self-test]\n\
     defaults: --baseline BENCH_parcfl.json --latest \
     bench/results/latest.json"

let () =
  let baseline = ref "BENCH_parcfl.json" in
  let latest = ref "bench/results/latest.json" in
  let selftest = ref false in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: p :: rest ->
        baseline := p;
        parse rest
    | "--latest" :: p :: rest ->
        latest := p;
        parse rest
    | "--self-test" :: rest ->
        selftest := true;
        parse rest
    | ("-h" | "--help") :: _ ->
        usage ();
        exit 0
    | arg :: _ ->
        Printf.eprintf "regress: unknown argument %S\n" arg;
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !selftest then exit (self_test ())
  else
    let doc_of path =
      match read_doc path with
      | Ok d -> d
      | Error e ->
          (* Sys_error and parse errors already name the path. *)
          Printf.eprintf "regress: %s\n" e;
          exit 2
    in
    let base = doc_of !baseline in
    let lat = doc_of !latest in
    match compare_docs ~baseline:base ~latest:lat with
    | Error e ->
        Printf.eprintf "regress: %s\n" e;
        exit 2
    | Ok { compared; skipped; failures } ->
        List.iter (fun f -> Printf.printf "REGRESSION %s\n" f) failures;
        Printf.printf
          "regress: %d entr%s compared (%d baseline entr%s without a match \
           skipped), %d regression(s)\n"
          compared
          (if compared = 1 then "y" else "ies")
          skipped
          (if skipped = 1 then "y" else "ies")
          (List.length failures);
        exit (if failures = [] then 0 else 1)

(* Cluster primitives: the shard-affine variable map (rendezvous
   ownership, oversized-component splitting, drain stability), its
   placement of the serving mix's load profile, the failover state
   machine, stats federation, and oracle-snapshot plumbing and warm-up. The
   router's end-to-end behaviour — failover replay over real processes —
   is covered by test/cluster_smoke.ml under `dune build @ci`. *)
module P = Parcfl

(* --------------------------- shard map ---------------------------- *)

(* 12 vars in 6 two-var components: below any split threshold, so every
   variable follows its root. *)
let even_roots = Array.init 12 (fun v -> v - (v mod 2))

let test_map_affinity () =
  let m = P.Shard_map.create ~n_shards:3 ~root_of:even_roots () in
  Alcotest.(check int) "no split" 0 (P.Shard_map.split_components m);
  for v = 0 to 11 do
    Alcotest.(check int)
      (Printf.sprintf "var %d follows its root" v)
      (P.Shard_map.home m (v - (v mod 2)))
      (P.Shard_map.home m v)
  done

let test_map_live_equals_home () =
  let m = P.Shard_map.create ~n_shards:4 ~root_of:even_roots () in
  let live = Array.make 4 true in
  for v = 0 to 11 do
    Alcotest.(check int) "all-live shard = home" (P.Shard_map.home m v)
      (P.Shard_map.shard m ~live v)
  done

(* Draining one shard moves exactly that shard's keys; everything else
   keeps its owner (the rendezvous property the router's re-routing
   depends on). *)
let test_map_drain_stability () =
  let root_of = Array.init 64 (fun v -> v - (v mod 2)) in
  let m = P.Shard_map.create ~n_shards:4 ~root_of () in
  let all = Array.make 4 true in
  let drained = Array.init 4 (fun s -> s <> 1) in
  Array.iteri
    (fun v _ ->
      let before = P.Shard_map.shard m ~live:all v in
      let after = P.Shard_map.shard m ~live:drained v in
      if before <> 1 then
        Alcotest.(check int)
          (Printf.sprintf "var %d unmoved by unrelated drain" v)
          before after
      else
        Alcotest.(check bool)
          (Printf.sprintf "var %d left the drained shard" v)
          true (after <> 1))
    root_of

(* One 40-var component among 10 singletons: mean size is ~4.5, so the
   big component is split per-variable and its members spread over the
   shards instead of pinning 80% of the map to one replica. *)
let outlier_roots =
  Array.init 50 (fun v -> if v < 40 then 0 else v)

let test_map_splits_outlier () =
  let m = P.Shard_map.create ~n_shards:4 ~root_of:outlier_roots () in
  Alcotest.(check int) "one split component" 1
    (P.Shard_map.split_components m);
  let shards = Array.make 4 0 in
  for v = 0 to 39 do
    shards.(P.Shard_map.home m v) <- shards.(P.Shard_map.home m v) + 1
  done;
  Alcotest.(check bool) "outlier members spread over >1 shard" true
    (Array.exists (fun c -> c > 0 && c < 40) shards);
  (* Sub-sharding is still drain-stable per variable. *)
  let all = Array.make 4 true in
  let dead = Array.init 4 (fun s -> s <> 0) in
  for v = 0 to 39 do
    let before = P.Shard_map.shard m ~live:all v in
    if before <> 0 then
      Alcotest.(check int) "split member unmoved" before
        (P.Shard_map.shard m ~live:dead v)
  done

let test_map_balanced_choice () =
  (* Two singleton components carrying all the load: a single seed may
     co-locate them, but the balanced scan must find a seed that puts
     them on different shards (busiest share 0.5). *)
  let root_of = [| 0; 1 |] and load = [| 100; 100 |] in
  let m = P.Shard_map.create_balanced ~n_shards:2 ~root_of ~load () in
  Alcotest.(check bool) "heavy keys separated" true
    (P.Shard_map.home m 0 <> P.Shard_map.home m 1);
  Alcotest.(check bool) "chosen seed within candidates" true
    (P.Shard_map.seed m >= 0 && P.Shard_map.seed m < 16);
  Alcotest.check_raises "load length mismatch"
    (Invalid_argument
       "Shard_map.create_balanced: load length disagrees with vars")
    (fun () ->
      ignore
        (P.Shard_map.create_balanced ~n_shards:2 ~root_of
           ~load:[| 1 |] ()));
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Shard_map.create_balanced: candidates must be > 0")
    (fun () ->
      ignore
        (P.Shard_map.create_balanced ~candidates:0 ~n_shards:2 ~root_of
           ~load ()))

let test_map_sizes_and_errors () =
  let m = P.Shard_map.create ~n_shards:2 ~root_of:even_roots () in
  let live = Array.make 2 true in
  let sizes = P.Shard_map.shard_sizes m ~live in
  Alcotest.(check int) "sizes sum to vars" 12
    (Array.fold_left ( + ) 0 sizes);
  Alcotest.check_raises "no live shard"
    (Invalid_argument "Shard_map.owner_among: no live shard") (fun () ->
      ignore (P.Shard_map.shard m ~live:(Array.make 2 false) 0));
  Alcotest.check_raises "var out of range"
    (Invalid_argument "Shard_map.home: variable out of range") (fun () ->
      ignore (P.Shard_map.home m 12));
  Alcotest.check_raises "mask size mismatch"
    (Invalid_argument "Shard_map.shard: live mask size mismatch") (fun () ->
      ignore (P.Shard_map.shard m ~live:(Array.make 3 true) 0))

(* The serving mix's load profile as the router's placement sees it:
   load(v) = requests for v plus the steps its answers report, from one
   cold run of the _200_check mix on the context-insensitive engine. *)
let mix_profile =
  lazy
    (let b = Lazy.force Serve_mix.check in
     let vars = Serve_mix.mix b in
     let svc = Serve_mix.service ~context_sensitive:false b in
     let responses = Serve_mix.drive svc vars in
     P.Service.shutdown svc;
     let pag = b.P.Suite.pag in
     let load = Array.make (P.Pag.n_vars pag) 0 in
     Array.iteri
       (fun i v ->
         load.(v) <-
           (load.(v) + 1
           +
           match responses.(i) with
           | P.Svc_protocol.Answer { steps; _ } -> steps
           | _ -> 0))
       vars;
     let plan =
       P.Schedule.prepare ~pag ~type_level:b.P.Suite.type_level
     in
     (plan, load))

(* The scale-out the cluster can reach on the mix is bounded by its
   busiest shard's share of the load: a replica per shard finishes when
   the busiest one does. Balanced on the observed profile, that share
   must admit 1.6x at 2 replicas, 2.5x at 4 and 3.0x at 8. *)
let test_mix_busiest_share_floors () =
  let plan, load = Lazy.force mix_profile in
  List.iter
    (fun (r, speedup) ->
      let m =
        P.Shard_map.of_plan_balanced ~candidates:64 ~n_shards:r ~load plan
      in
      let share = P.Shard_map.busiest_share m ~load in
      if share > 1.0 /. speedup then
        Alcotest.failf "%d shards: busiest share %.3f > 1/%.1f" r share
          speedup)
    [ (2, 1.6); (4, 2.5); (8, 3.0) ]

(* --------------------------- federation --------------------------- *)

module E = P.Expo
module F = P.Cluster_federation
module J = P.Json

let test_federation_counters_sum_gauges_relabel () =
  let fam_of value gauge =
    [
      E.counter ~name:"parcfl_hits_total" ~help:"Hits." value;
      E.gauge ~name:"parcfl_queue_depth" ~help:"Depth." gauge;
    ]
  in
  match F.merge_families [ (0, fam_of 3.0 5.0); (2, fam_of 4.0 7.0) ] with
  | Error e -> Alcotest.failf "merge: %s" e
  | Ok fams ->
      let text = E.render fams in
      Alcotest.(check bool) "counters summed" true
        (let re = "parcfl_hits_total 7" in
         let rec find i =
           i + String.length re <= String.length text
           && (String.sub text i (String.length re) = re || find (i + 1))
         in
         find 0);
      (* Gauges survive per replica under a replica label, unsummed. *)
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "gauge kept: %s" needle)
            true
            (let rec find i =
               i + String.length needle <= String.length text
               && (String.sub text i (String.length needle) = needle
                  || find (i + 1))
             in
             find 0))
        [
          "parcfl_queue_depth{replica=\"0\"} 5";
          "parcfl_queue_depth{replica=\"2\"} 7";
        ]

let test_federation_histograms_sum () =
  (* Equal-length log2 bucket arrays sum pointwise... *)
  let h buckets =
    [
      E.histogram_of_log2 ~name:"parcfl_latency_us" ~help:"Latency."
        buckets;
    ]
  in
  (match F.merge_families [ (0, h [| 1; 2; 3 |]); (1, h [| 4; 0; 1 |]) ]
   with
  | Error e -> Alcotest.failf "merge: %s" e
  | Ok [ E.Histogram { series = [ s ]; _ } ] ->
      Alcotest.(check int) "total count sums" 11 s.E.h_count;
      Alcotest.(check (list (pair (float 1e-9) int)))
        "buckets sum cumulatively"
        [ (2.0, 5); (4.0, 7); (infinity, 11) ]
        s.E.h_buckets
  | Ok _ -> Alcotest.fail "expected one merged histogram series");
  (* ...and unequal bucket lists merge over the union of bounds with
     exact totals (replicas size their rings independently). *)
  match F.merge_families [ (0, h [| 2 |]); (1, h [| 1; 1; 1 |]) ] with
  | Error e -> Alcotest.failf "merge: %s" e
  | Ok [ E.Histogram { series = [ s ]; _ } ] ->
      Alcotest.(check int) "union total" 5 s.E.h_count;
      let total_bound, total = List.nth s.E.h_buckets (List.length s.E.h_buckets - 1) in
      Alcotest.(check bool) "+Inf closes the union" true
        (total_bound = infinity);
      Alcotest.(check int) "+Inf keeps totals exact" 5 total
  | Ok _ -> Alcotest.fail "expected one merged histogram series"

let test_federation_kind_mismatch_rejected () =
  let a = [ E.counter ~name:"parcfl_x" ~help:"X." 1.0 ] in
  let b = [ E.gauge ~name:"parcfl_x" ~help:"X." 1.0 ] in
  match F.merge_families [ (0, a); (1, b) ] with
  | Ok _ -> Alcotest.fail "kind mismatch must be rejected"
  | Error e ->
      Alcotest.(check bool) "error names the family" true
        (let needle = "parcfl_x" in
         let rec find i =
           i + String.length needle <= String.length e
           && (String.sub e i (String.length needle) = needle
              || find (i + 1))
         in
         find 0)

(* The router's stats path over two real services' scrapes. Each replica
   hits its cache at 0.8: [misses] distinct queries solved in [batches]
   equal batches, then each asked 4 more times. Counters sum, the ratios
   are recomputed from the summed counters (0.8 stays 0.8; 11 queries in
   3 batches), no gauge has a total, and each replica's entry is its own
   [stats]. *)
let test_federation_stats_totals () =
  let b = Lazy.force Serve_mix.check in
  let vars = List.sort_uniq compare (Array.to_list b.P.Suite.queries) in
  let replica ~misses ~batches =
    let svc = Serve_mix.service b in
    (* Wall clock, so the stage counters stay microsecond sized. *)
    let now = Unix.gettimeofday in
    let ask id v =
      P.Service.submit svc ~now:(now ())
        ~respond:(fun _ -> ())
        (P.Svc_protocol.Query
           {
             id;
             var = Printf.sprintf "#%d" v;
             budget = None;
             deadline_ms = None;
             trace = None;
           })
    in
    let mine = List.filteri (fun i _ -> i < misses) vars in
    List.iteri
      (fun i v ->
        ask i v;
        if (i + 1) mod (misses / batches) = 0 then
          ignore (P.Service.pump svc ~now:(now ())))
      mine;
    List.iteri (fun i v -> for k = 1 to 4 do ask ((100 * k) + i) v done) mine;
    svc
  in
  let svcs = [ replica ~misses:6 ~batches:2; replica ~misses:5 ~batches:1 ] in
  let merged =
    match
      P.Router.federated_stats
        (List.mapi (fun i svc -> (i, P.Service.metrics_text svc)) svcs)
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "federated stats: %s" e
  in
  let fields = function J.Obj f -> f | _ -> Alcotest.fail "not an object" in
  let own = List.map (fun svc -> fields (P.Service.stats svc)) svcs in
  List.iter P.Service.shutdown svcs;
  (match J.member "replicas" merged with
  | Some (J.Int 2) -> ()
  | _ -> Alcotest.fail "replicas count");
  let totals =
    match J.member "totals" merged with
    | Some t -> fields t
    | None -> Alcotest.fail "totals present"
  in
  (match List.assoc_opt "cache_hit_rate" totals with
  | Some (J.Float r) -> Alcotest.(check (float 1e-9)) "hit rate" 0.8 r
  | _ -> Alcotest.fail "cache_hit_rate total");
  (match List.assoc_opt "mean_batch_size" totals with
  | Some (J.Float r) ->
      Alcotest.(check (float 1e-9)) "mean batch" (11.0 /. 3.0) r
  | _ -> Alcotest.fail "mean_batch_size total");
  (match List.assoc_opt "cache_hits" totals with
  | Some (J.Int 44) -> ()
  | _ -> Alcotest.fail "cache_hits sums");
  (* Every other total is a counter, summed over the replicas. *)
  List.iter
    (fun (k, v) ->
      match v with
      | J.Int n ->
          Alcotest.(check int) ("sum of " ^ k) n
            (List.fold_left
               (fun acc f ->
                 match List.assoc_opt k f with
                 | Some (J.Int m) -> acc + m
                 | _ -> Alcotest.failf "replica lacks %s" k)
               0 own)
      | _ when k = "cache_hit_rate" || k = "mean_batch_size" -> ()
      | _ -> Alcotest.failf "total %s is not a counter" k)
    totals;
  List.iter
    (fun k ->
      if List.mem_assoc k totals then
        Alcotest.failf "gauge %s must not be summed" k)
    [
      "queue_depth"; "cache_size"; "uptime_s"; "jmp_edges"; "steps_per_second"; "threads"; "mode"; "oracle_live";
    ];
  (* Each replica's entry is that service's own [stats], on every int and
     string field (floats went through the exposition's 12 digits). *)
  match J.member "per_replica" merged with
  | Some (J.List entries) ->
      Alcotest.(check int) "one entry per replica" 2 (List.length entries);
      List.iteri
        (fun i e ->
          (match J.member "replica" e with
          | Some (J.Int r) -> Alcotest.(check int) "replica index" i r
          | _ -> Alcotest.fail "entry lacks its replica index");
          let viewed =
            match J.member "stats" e with
            | Some s -> fields s
            | None -> Alcotest.fail "entry lacks stats"
          in
          let exact f =
            List.filter
              (function _, (J.Int _ | J.String _) -> true | _ -> false)
              f
          in
          let own = List.nth own i in
          Alcotest.(check (list string)) "same keys" (List.map fst own)
            (List.map fst viewed);
          if exact viewed <> exact own then
            Alcotest.failf "replica %d: %s <> %s" i
              (J.to_string (J.Obj viewed))
              (J.to_string (J.Obj own)))
        entries
  | _ -> Alcotest.fail "per_replica list"

let test_federation_slowlog_order_and_limit () =
  let entry lat at = J.Obj [ ("latency_us", J.Float lat); ("at", J.Float at) ] in
  let merged =
    F.merge_slowlogs ~limit:3
      [
        (0, J.List [ entry 50.0 1.0; entry 10.0 2.0 ]);
        (1, J.List [ entry 90.0 3.0; entry 50.0 4.0 ]);
      ]
  in
  match merged with
  | J.List entries ->
      let lat e =
        match J.member "latency_us" e with
        | Some (J.Float f) -> f
        | _ -> Alcotest.fail "entry latency"
      in
      let replica e =
        match J.member "replica" e with
        | Some (J.Int i) -> i
        | _ -> Alcotest.fail "entry replica tag"
      in
      Alcotest.(check (list (float 1e-9)))
        "worst first, truncated to limit" [ 90.0; 50.0; 50.0 ]
        (List.map lat entries);
      (* The 50us tie breaks by newest [at]: replica 1's entry (at=4)
         precedes replica 0's (at=1). *)
      Alcotest.(check (list int)) "entries tagged with their replica"
        [ 1; 1; 0 ]
        (List.map replica entries)
  | _ -> Alcotest.fail "slowlog merge returns a list"

let test_federation_health () =
  (* All live replicas ok: the cluster is ok, no reasons. *)
  Alcotest.(check (pair bool (list string)))
    "all ok" (true, [])
    (F.merge_health [ (0, true, []); (1, true, []) ]);
  (* One degraded replica degrades the cluster; its reasons survive,
     tagged with the replica that reported them. *)
  let starved =
    "queue starved: oldest admitted waiting 2.0s (threshold 1.0s)"
  in
  let healthy, reasons =
    F.merge_health [ (0, true, []); (2, false, [ starved ]) ]
  in
  Alcotest.(check bool) "one bad replica flips the verdict" false healthy;
  Alcotest.(check (list string))
    "reasons tagged with their replica"
    [ "replica=\"2\": " ^ starved ]
    reasons;
  (* No replies at all is not health — it is silence. *)
  Alcotest.(check bool) "empty gather is not healthy" false
    (fst (F.merge_health []));
  (* Drained-replica notes inform but never flip the verdict: drained
     replicas are not live, so their absence is expected. *)
  let healthy, reasons =
    F.merge_health ~drained:[ "replica 1 (127.0.0.1:7001) drained" ]
      [ (0, true, []) ]
  in
  Alcotest.(check bool) "drained notes keep the cluster ok" true healthy;
  Alcotest.(check (list string))
    "drained notes prepended"
    [ "replica 1 (127.0.0.1:7001) drained" ]
    reasons

(* ---------------------------- failover ---------------------------- *)

let test_failover_drain_and_readmit () =
  let f = P.Cluster_failover.create ~n:3 ~k_readmit:2 in
  Alcotest.(check int) "all live" 3 (P.Cluster_failover.n_live f);
  Alcotest.(check bool) "drain fires" true
    (P.Cluster_failover.force_drain f 1 = P.Cluster_failover.Drained_now);
  Alcotest.(check bool) "1 is down" false (P.Cluster_failover.is_live f 1);
  Alcotest.(check int) "two live" 2 (P.Cluster_failover.n_live f);
  (* One healthy poll is not enough at k_readmit = 2... *)
  Alcotest.(check bool) "first healthy poll: no readmit" true
    (P.Cluster_failover.observe f 1 ~healthy:true
    = P.Cluster_failover.Unchanged);
  (* ...a failure resets the streak... *)
  Alcotest.(check bool) "failed poll resets" true
    (P.Cluster_failover.observe f 1 ~healthy:false
    = P.Cluster_failover.Unchanged);
  Alcotest.(check bool) "restart streak" true
    (P.Cluster_failover.observe f 1 ~healthy:true
    = P.Cluster_failover.Unchanged);
  (* ...and the k-th consecutive success re-admits. *)
  Alcotest.(check bool) "second consecutive readmits" true
    (P.Cluster_failover.observe f 1 ~healthy:true
    = P.Cluster_failover.Readmitted);
  Alcotest.(check bool) "1 is back" true (P.Cluster_failover.is_live f 1)

let test_failover_healthy_live_noop () =
  let f = P.Cluster_failover.create ~n:2 ~k_readmit:3 in
  Alcotest.(check bool) "healthy live replica unchanged" true
    (P.Cluster_failover.observe f 0 ~healthy:true
    = P.Cluster_failover.Unchanged);
  Alcotest.(check bool) "unhealthy live replica drains" true
    (P.Cluster_failover.observe f 0 ~healthy:false
    = P.Cluster_failover.Drained_now);
  Alcotest.(check bool) "re-drain of a drained replica is a no-op" true
    (P.Cluster_failover.force_drain f 0 = P.Cluster_failover.Unchanged)

(* ---------------------------- snapshot ---------------------------- *)

let test_snapshot_file_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "parcfl_snap_test_%d" (Unix.getpid ()))
  in
  let text = "oraclesnap 1 0 2 1 1\n0\n0 0\n" in
  (match P.Cluster_snapshot.save_file ~path text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  (match P.Cluster_snapshot.load_file ~path with
  | Ok got -> Alcotest.(check string) "roundtrip" text got
  | Error e -> Alcotest.failf "load: %s" e);
  (match P.Cluster_snapshot.wait_for_file ~timeout_s:1.0 ~path () with
  | Ok got -> Alcotest.(check string) "wait sees it" text got
  | Error e -> Alcotest.failf "wait: %s" e);
  Sys.remove path;
  match P.Cluster_snapshot.wait_for_file ~timeout_s:0.2 ~path ()
  with
  | Ok _ -> Alcotest.fail "wait on a missing file must time out"
  | Error _ -> ()

(* A joining replica armed from a donor's exported oracle rows answers
   the mix's first 100 queries in full from the tier, walking no step;
   a cold joiner has to walk them. *)
let test_snapshot_warmed_joiner () =
  let b = Lazy.force Serve_mix.check in
  let first = Array.sub (Serve_mix.mix b) 0 100 in
  let donor = Serve_mix.service ~context_sensitive:false ~oracle:true b in
  let text =
    match P.Service.export_oracle donor with
    | Ok (text, _) -> text
    | Error e -> Alcotest.failf "export: %s" e
  in
  P.Service.shutdown donor;
  let join ~warm =
    let svc = Serve_mix.service ~context_sensitive:false b in
    if warm then (
      match P.Service.import_oracle svc text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "import: %s" e);
    let responses = Serve_mix.drive svc first in
    let hits = Serve_mix.stat svc "oracle_hits" in
    P.Service.shutdown svc;
    (Serve_mix.completed responses, hits, Serve_mix.steps responses)
  in
  let warm_ok, warm_hits, warm_steps = join ~warm:true in
  Alcotest.(check int) "warm joiner completes" 100 warm_ok;
  Alcotest.(check int) "warm joiner answers from the tier" 100 warm_hits;
  Alcotest.(check int) "warm joiner walks no step" 0 warm_steps;
  let _, _, cold_steps = join ~warm:false in
  if cold_steps <= 0 then Alcotest.fail "cold joiner walked no steps"

let suite =
  ( "cluster",
    [
      Alcotest.test_case "shard map affinity" `Quick test_map_affinity;
      Alcotest.test_case "shard map all-live = home" `Quick
        test_map_live_equals_home;
      Alcotest.test_case "shard map drain stability" `Quick
        test_map_drain_stability;
      Alcotest.test_case "shard map splits outliers" `Quick
        test_map_splits_outlier;
      Alcotest.test_case "shard map balanced seed choice" `Quick
        test_map_balanced_choice;
      Alcotest.test_case "shard map sizes and errors" `Quick
        test_map_sizes_and_errors;
      Alcotest.test_case "mix busiest share meets scale-out floors" `Quick
        test_mix_busiest_share_floors;
      Alcotest.test_case "snapshot-warmed joiner beats cold" `Quick
        test_snapshot_warmed_joiner;
      Alcotest.test_case "federation counters/gauges" `Quick
        test_federation_counters_sum_gauges_relabel;
      Alcotest.test_case "federation histograms" `Quick
        test_federation_histograms_sum;
      Alcotest.test_case "federation kind mismatch" `Quick
        test_federation_kind_mismatch_rejected;
      Alcotest.test_case "federation stats totals" `Quick
        test_federation_stats_totals;
      Alcotest.test_case "federation health verdict" `Quick
        test_federation_health;
      Alcotest.test_case "federation slowlog order" `Quick
        test_federation_slowlog_order_and_limit;
      Alcotest.test_case "failover drain/readmit" `Quick
        test_failover_drain_and_readmit;
      Alcotest.test_case "failover edge cases" `Quick
        test_failover_healthy_live_noop;
      Alcotest.test_case "snapshot file roundtrip" `Quick
        test_snapshot_file_roundtrip;
    ] )

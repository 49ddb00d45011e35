(* Data sharing: the jmp store's insert-if-absent and threshold semantics,
   shortcut-taking, early termination, and the precision relationship
   between shared and unshared runs. *)
module Pag = Parcfl.Pag
module B = Parcfl.Pag.Build
module Ctx = Parcfl.Ctx
module Config = Parcfl.Config
module Solver = Parcfl.Solver
module Query = Parcfl.Query
module Jmp_store = Parcfl.Jmp_store
module Hooks = Parcfl.Hooks

let objs outcome = List.sort compare (Query.objects outcome.Query.result)

(* ------------------------- store semantics ------------------------ *)

let test_store_basics () =
  let st = Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  let h = Jmp_store.hooks st in
  let c = Ctx.empty in
  Alcotest.(check int) "empty" 0 (Jmp_store.n_jumps st);
  h.Hooks.record_finished Hooks.Bwd 5 c ~cost:10 ~targets:[| (1, c) |];
  h.Hooks.record_finished Hooks.Bwd 5 c ~cost:99 ~targets:[||];
  Alcotest.(check int) "first finished wins" 1 (Jmp_store.n_finished st);
  (match (h.Hooks.lookup Hooks.Bwd 5 c ~steps:0).Hooks.finished with
  | Some { Hooks.cost = 10; _ } -> ()
  | _ -> Alcotest.fail "expected the first record");
  (* Directions and contexts are distinct keys. *)
  Alcotest.(check bool) "other direction empty" true
    ((h.Hooks.lookup Hooks.Fwd 5 c ~steps:0).Hooks.finished = None);
  h.Hooks.record_unfinished Hooks.Bwd 5 c ~s:42;
  h.Hooks.record_unfinished Hooks.Bwd 5 c ~s:100;
  Alcotest.(check int) "first unfinished wins" 1 (Jmp_store.n_unfinished st);
  (match (h.Hooks.lookup Hooks.Bwd 5 c ~steps:0).Hooks.unfinished with
  | Some 42 -> ()
  | _ -> Alcotest.fail "expected s=42");
  Jmp_store.clear st;
  Alcotest.(check int) "cleared" 0 (Jmp_store.n_jumps st)

let test_store_thresholds () =
  let st = Jmp_store.create ~tau_f:100 ~tau_u:1000 () in
  let h = Jmp_store.hooks st in
  let c = Ctx.empty in
  h.Hooks.record_finished Hooks.Bwd 1 c ~cost:99 ~targets:[||];
  h.Hooks.record_finished Hooks.Bwd 2 c ~cost:100 ~targets:[||];
  h.Hooks.record_unfinished Hooks.Bwd 3 c ~s:999;
  h.Hooks.record_unfinished Hooks.Bwd 4 c ~s:1000;
  Alcotest.(check int) "finished filtered by tau_f" 1 (Jmp_store.n_finished st);
  Alcotest.(check int) "unfinished filtered by tau_u" 1
    (Jmp_store.n_unfinished st)

let test_store_histogram () =
  let st = Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  let h = Jmp_store.hooks st in
  h.Hooks.record_finished Hooks.Bwd 1 Ctx.empty ~cost:1 ~targets:[||];
  h.Hooks.record_finished Hooks.Bwd 2 Ctx.empty ~cost:7 ~targets:[||];
  h.Hooks.record_finished Hooks.Bwd 3 Ctx.empty ~cost:8 ~targets:[||];
  h.Hooks.record_unfinished Hooks.Bwd 4 Ctx.empty ~s:1_000_000;
  let fin, unf = Jmp_store.histogram st ~buckets:5 in
  Alcotest.(check (array int)) "finished buckets" [| 1; 0; 1; 1; 0 |] fin;
  (* 1e6 overflows into the last bucket. *)
  Alcotest.(check (array int)) "unfinished buckets" [| 0; 0; 0; 0; 1 |] unf

(* Fig. 7 reads its histogram off a caller-owned store after a Share
   pass: every record the store accepted lands in exactly one bucket. *)
let test_store_histogram_after_run () =
  let b = Option.get (Parcfl.Suite.build_by_name "_200_check") in
  List.iter
    (fun (tau_f, tau_u) ->
      let store = Jmp_store.create ~tau_f ~tau_u () in
      let r =
        Parcfl.Runner.run ~store ~ctx_store:(Ctx.create_store ())
          ~type_level:b.Parcfl.Suite.type_level
          ~solver_config:
            (Config.with_budget Parcfl.Profile.default_budget Config.default)
          ~mode:Parcfl.Mode.Share ~threads:1 ~queries:b.Parcfl.Suite.queries
          b.Parcfl.Suite.pag
      in
      let fin, unf = Jmp_store.histogram store ~buckets:17 in
      let total = Array.fold_left ( + ) 0 in
      Alcotest.(check bool) "the pass recorded jmp edges" true
        (Jmp_store.n_finished store > 0);
      Alcotest.(check int) "finished buckets = n_finished"
        (Jmp_store.n_finished store) (total fin);
      Alcotest.(check int) "unfinished buckets = n_unfinished"
        (Jmp_store.n_unfinished store) (total unf);
      Alcotest.(check int) "report counts the same store"
        (Jmp_store.n_finished store + Jmp_store.n_unfinished store)
        (Parcfl.Report.n_jumps r))
    [
      (Parcfl.Profile.default_tau_f, Parcfl.Profile.default_tau_u); (1, 1);
    ]

(* --------------------- solver with a jmp store --------------------- *)

(* A graph where two queries traverse the same heap-access path: both x1
   and x2 copy from m = p.f, with a store through an alias of p, so the
   ReachableNodes record at (m, []) is shared between the queries. *)
let shared_graph () =
  let b = B.create () in
  let p = B.add_var b "p" in
  let q = B.add_var b "q" in
  let a = B.add_var b "a" in
  let m = B.add_var b "m" in
  let x1 = B.add_var b "x1" in
  let x2 = B.add_var b "x2" in
  let op = B.add_obj b "op" in
  let oa = B.add_obj b "oa" in
  B.new_edge b ~dst:p op;
  B.assign b ~dst:q ~src:p;
  B.new_edge b ~dst:a oa;
  B.store b ~base:q 0 ~src:a;
  B.load b ~dst:m ~base:p 0;
  B.assign b ~dst:x1 ~src:m;
  B.assign b ~dst:x2 ~src:m;
  (B.freeze b, (x1, x2, oa))

let test_shortcut_taken () =
  let pag, (x1, x2, oa) = shared_graph () in
  let store = Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  let stats = Parcfl.Stats.create () in
  let s =
    Solver.make_session ~hooks:(Jmp_store.hooks store) ~stats
      ~config:Config.default ~ctx_store:(Ctx.create_store ()) pag
  in
  let o1 = Solver.points_to s x1 in
  Alcotest.(check (list int)) "x1 -> {oa}" [ oa ] (objs o1);
  Alcotest.(check bool) "jmp recorded" true (Jmp_store.n_finished store > 0);
  let before = (Parcfl.Stats.snapshot stats).Parcfl.Stats.s_jmp_taken in
  let o2 = Solver.points_to s x2 in
  Alcotest.(check (list int)) "x2 -> {oa} via shortcut" [ oa ] (objs o2);
  let after = (Parcfl.Stats.snapshot stats).Parcfl.Stats.s_jmp_taken in
  Alcotest.(check bool) "shortcut taken" true (after > before);
  Alcotest.(check bool) "shortcut cheaper" true
    (o2.Query.steps_walked < o1.Query.steps_walked)

let test_budget_charged_on_shortcut () =
  let pag, (x1, x2, _) = shared_graph () in
  let store = Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  let s =
    Solver.make_session ~hooks:(Jmp_store.hooks store)
      ~config:Config.default ~ctx_store:(Ctx.create_store ()) pag
  in
  let o1 = Solver.points_to s x1 in
  let o2 = Solver.points_to s x2 in
  (* The budget charge (steps_used) of the shortcut run must equal the
     original run's: replay is step-exact. *)
  Alcotest.(check int) "step accounting identical" o1.Query.steps_used
    o2.Query.steps_used

let test_early_termination () =
  (* First query aborts on a long chain behind a load; its Unfinished jmp
     must early-terminate an equally poor second query. *)
  let b = B.create () in
  let n = 30 in
  let chain = Array.init n (fun i -> B.add_var b (Printf.sprintf "c%d" i)) in
  let o = B.add_obj b "o" in
  B.new_edge b ~dst:chain.(0) o;
  for i = 1 to n - 1 do
    B.assign b ~dst:chain.(i) ~src:chain.(i - 1)
  done;
  let a = B.add_var b "a" in
  let oa = B.add_obj b "oa" in
  B.new_edge b ~dst:a oa;
  B.store b ~base:chain.(n - 1) 0 ~src:a;
  (* Both queries funnel through the same load variable m, so the
     Unfinished jmp recorded at (m, []) by the first query is visible to
     the second. *)
  let m = B.add_var b "m" in
  B.load b ~dst:m ~base:chain.(n - 1) 0;
  let x1 = B.add_var b "x1" in
  let x2 = B.add_var b "x2" in
  B.assign b ~dst:x1 ~src:m;
  B.assign b ~dst:x2 ~src:m;
  let pag = B.freeze b in
  let store = Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  let stats = Parcfl.Stats.create () in
  let s =
    Solver.make_session ~hooks:(Jmp_store.hooks store) ~stats
      ~config:(Config.with_budget 10 Config.default)
      ~ctx_store:(Ctx.create_store ()) pag
  in
  let o1 = Solver.points_to s x1 in
  Alcotest.(check bool) "first query aborts" false (Query.completed o1);
  Alcotest.(check bool) "unfinished jmp recorded" true
    (Jmp_store.n_unfinished store > 0);
  let o2 = Solver.points_to s x2 in
  Alcotest.(check bool) "second query aborts" false (Query.completed o2);
  Alcotest.(check bool) "second query terminated early" true
    o2.Query.early_terminated;
  Alcotest.(check bool) "early termination saves steps" true
    (o2.Query.steps_walked < o1.Query.steps_walked);
  Alcotest.(check int) "stat counted" 1
    (Parcfl.Stats.snapshot stats).Parcfl.Stats.s_early_terminations

let test_no_et_with_enough_budget () =
  (* The same unfinished record must NOT abort a query that still has
     plenty of budget. *)
  let b = B.create () in
  let p = B.add_var b "p" in
  let a = B.add_var b "a" in
  let x = B.add_var b "x" in
  let op = B.add_obj b "op" in
  let oa = B.add_obj b "oa" in
  B.new_edge b ~dst:p op;
  B.new_edge b ~dst:a oa;
  B.store b ~base:p 0 ~src:a;
  B.load b ~dst:x ~base:p 0;
  let pag = B.freeze b in
  let store = Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  (* Manually plant an unfinished marker with a small threshold. *)
  (Jmp_store.hooks store).Hooks.record_unfinished Hooks.Bwd x Ctx.empty ~s:3;
  let s =
    Solver.make_session ~hooks:(Jmp_store.hooks store)
      ~config:(Config.with_budget 10_000 Config.default)
      ~ctx_store:(Ctx.create_store ()) pag
  in
  let o = Solver.points_to s x in
  Alcotest.(check bool) "completes despite marker" true (Query.completed o);
  Alcotest.(check (list int)) "right answer" [ oa ] (objs o)

(* Precision relationship on generated programs: for queries that complete
   both with and without sharing, the unshared result is a subset of the
   shared one (replayed shortcuts are exact; locally broken cycles may
   under-approximate — see solver.mli). In practice they are equal. *)
let test_sharing_precision () =
  let program = Parcfl.Genprog.generate Parcfl.Profile.tiny in
  let cg = Parcfl.Callgraph.build program in
  let l = Parcfl.Lower.lower program cg in
  let pag = l.Parcfl.Lower.pag in
  let queries = Pag.app_locals pag in
  let config = Config.with_budget 2_000 Config.default in
  let run hooks =
    let s =
      Solver.make_session ?hooks ~config ~ctx_store:(Ctx.create_store ()) pag
    in
    Array.map (fun v -> Solver.points_to s v) queries
  in
  let base = run None in
  let store = Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  let shared = run (Some (Jmp_store.hooks store)) in
  Array.iteri
    (fun i b ->
      let sh = shared.(i) in
      match (b.Query.result, sh.Query.result) with
      | Query.Points_to _, Query.Points_to _ ->
          let ob = objs b and os = objs sh in
          if not (List.for_all (fun o -> List.mem o os) ob) then
            Alcotest.failf "query %d lost precision under sharing" i
      | _ -> ())
    base

(* Concurrent readers must never observe a torn record: before the
   find_map fix, lookup read the record's mutable fin/unf fields after
   releasing the shard lock, racing the in-place update in record_*. Two
   writer domains race first-wins inserts on the same keys while two
   reader domains check every observed value is one a writer actually
   wrote. *)
let test_store_multicore_stress () =
  let st = Jmp_store.create ~tau_f:1 ~tau_u:1 () in
  let h = Jmp_store.hooks st in
  let c = Ctx.empty in
  let n_keys = 64 and rounds = 400 in
  let bad = Atomic.make 0 in
  let writer seed () =
    for r = 0 to rounds - 1 do
      for v = 0 to n_keys - 1 do
        h.Hooks.record_finished Hooks.Bwd v c
          ~cost:(10 + ((seed + r) mod 8))
          ~targets:[| (v, c) |];
        h.Hooks.record_unfinished Hooks.Bwd v c ~s:(100 + ((seed + r) mod 8))
      done
    done
  in
  let reader () =
    for _ = 0 to rounds - 1 do
      for v = 0 to n_keys - 1 do
        let jmp = h.Hooks.lookup Hooks.Bwd v c ~steps:0 in
        (match jmp.Hooks.finished with
        | Some { Hooks.cost; targets } ->
            if
              cost < 10 || cost >= 18
              || Array.length targets <> 1
              || fst targets.(0) <> v
            then Atomic.incr bad
        | None -> ());
        match jmp.Hooks.unfinished with
        | Some s -> if s < 100 || s >= 108 then Atomic.incr bad
        | None -> ()
      done
    done
  in
  let domains =
    List.map Domain.spawn [ writer 0; writer 3; reader; reader ]
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get bad);
  (* First-wins: exactly one record per key survived the write race. *)
  Alcotest.(check int) "one finished per key" n_keys (Jmp_store.n_finished st);
  Alcotest.(check int) "one unfinished per key" n_keys
    (Jmp_store.n_unfinished st)

let suite =
  ( "sharing",
    [
      Alcotest.test_case "store basics" `Quick test_store_basics;
      Alcotest.test_case "store thresholds" `Quick test_store_thresholds;
      Alcotest.test_case "store histogram" `Quick test_store_histogram;
      Alcotest.test_case "store histogram after a Share pass" `Quick
        test_store_histogram_after_run;
      Alcotest.test_case "shortcut taken" `Quick test_shortcut_taken;
      Alcotest.test_case "step-exact replay" `Quick
        test_budget_charged_on_shortcut;
      Alcotest.test_case "early termination" `Quick test_early_termination;
      Alcotest.test_case "no ET with enough budget" `Quick
        test_no_et_with_enough_budget;
      Alcotest.test_case "sharing precision" `Quick test_sharing_precision;
      Alcotest.test_case "store multicore stress" `Quick
        test_store_multicore_stress;
    ] )

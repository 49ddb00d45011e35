(* The whole-program bitset matrix backend (lib/matrix) and its jmp-store
   pre-seeding, checked differentially against the other two backends:

   - kernel = Andersen on handwritten, generated and random PAGs (two
     independent whole-program implementations of the same fixpoint);
   - kernel = the demand solver at budgetless context-insensitive
     settings, on every Suite workload's query population;
   - pre-seeded demand sessions answer exactly like cold ones, in both
     the context-insensitive engine (full target sets are replayed) and
     the context-sensitive engine (only empty CI sets are seeded). *)

module P = Parcfl

let pag_of_profile p =
  let program = P.Genprog.generate p in
  let cg = P.Callgraph.build program in
  (P.Lower.lower program cg).P.Lower.pag

let kernel_vs_andersen ?(threads = 1) pag =
  let k = P.Matrix.solve ~threads pag in
  let a = P.Andersen.solve pag in
  let bad = ref [] in
  for v = 0 to P.Pag.n_vars pag - 1 do
    if P.Matrix.points_to_list k v <> P.Andersen.points_to_list a v then
      bad := v :: !bad
  done;
  !bad

let test_kernel_tiny () =
  let pag = pag_of_profile P.Profile.tiny in
  Alcotest.(check (list int)) "threads=1" [] (kernel_vs_andersen pag);
  Alcotest.(check (list int)) "threads=3" [] (kernel_vs_andersen ~threads:3 pag)

let test_kernel_threads_agree () =
  (* Determinism across thread counts: identical rows, not just parity. *)
  let pag = pag_of_profile (Option.get (P.Profile.find "_200_check")) in
  let k1 = P.Matrix.solve ~threads:1 pag in
  let k4 = P.Matrix.solve ~threads:4 pag in
  for v = 0 to P.Pag.n_vars pag - 1 do
    if P.Matrix.points_to_list k1 v <> P.Matrix.points_to_list k4 v then
      Alcotest.failf "rows differ at #%d" v
  done

let test_kernel_all_profiles () =
  List.iter
    (fun p ->
      let pag = pag_of_profile p in
      match kernel_vs_andersen ~threads:2 pag with
      | [] -> ()
      | bad ->
          Alcotest.failf "%s: %d vars disagree with Andersen (e.g. #%d)"
            p.P.Profile.name (List.length bad) (List.hd bad))
    P.Profile.all

let prop_kernel_random =
  QCheck.Test.make ~name:"kernel = Andersen on random PAGs" ~count:150
    (QCheck.make Test_oracle.random_pag_gen) (fun edges ->
      let pag = Test_oracle.build_random edges in
      kernel_vs_andersen pag = [])

(* ---------------- demand-solver parity (budgetless CI) -------------- *)

let ci_budgetless =
  {
    P.Config.budget = max_int;
    context_sensitive = false;
    max_ctx_depth = 64;
    exhaustive = false;
  }

let session ?hooks config pag =
  P.Solver.make_session ?hooks ~config ~ctx_store:(P.Ctx.create_store ()) pag

let objects outcome = P.Query.objects outcome.P.Query.result |> List.sort compare

let test_kernel_vs_demand_suites () =
  (* The tentpole differential: on every Table-I workload, the kernel and
     a budgetless context-insensitive demand session agree on the paper's
     whole query population. *)
  List.iter
    (fun p ->
      let b = P.Suite.build p in
      let k = P.Matrix.solve ~threads:2 b.P.Suite.pag in
      let s = session ci_budgetless b.P.Suite.pag in
      let vars = List.sort_uniq compare (Array.to_list b.P.Suite.queries) in
      List.iter
        (fun v ->
          let demand = objects (P.Solver.points_to s v) in
          let matrix = P.Matrix.points_to_list k v in
          if demand <> matrix then
            Alcotest.failf "%s #%d: demand %d objs, matrix %d objs"
              p.P.Profile.name v (List.length demand) (List.length matrix))
        vars)
    P.Profile.all

let test_kernel_vs_oracle_tiny () =
  let pag = pag_of_profile P.Profile.tiny in
  let k = P.Matrix.solve pag in
  let s = session P.Config.oracle pag in
  for v = 0 to P.Pag.n_vars pag - 1 do
    if objects (P.Solver.points_to s v) <> P.Matrix.points_to_list k v then
      Alcotest.failf "oracle disagrees at #%d" v
  done

(* ------------------------- pre-seeding ------------------------------ *)

let seeded_store ~context_sensitive pag =
  let kernel = P.Matrix.solve ~threads:2 pag in
  let store =
    P.Jmp_store.create ~tau_f:P.Profile.default_tau_f
      ~tau_u:P.Profile.default_tau_u ()
  in
  let n = P.Matrix_seed.preseed ~kernel ~pag ~store ~context_sensitive in
  (store, n)

let check_warm_equals_cold ~name ~config ~context_sensitive suite =
  let pag = suite.P.Suite.pag in
  let store, seeded = seeded_store ~context_sensitive pag in
  Alcotest.(check bool) (name ^ ": seeded some records") true (seeded > 0);
  let cold = session config pag in
  let warm = session ~hooks:(P.Jmp_store.hooks store) config pag in
  let vars = List.sort_uniq compare (Array.to_list suite.P.Suite.queries) in
  List.iter
    (fun v ->
      let c = P.Solver.points_to cold v and w = P.Solver.points_to warm v in
      match (c.P.Query.result, w.P.Query.result) with
      | P.Query.Out_of_budget, P.Query.Out_of_budget -> ()
      | _ ->
          if objects c <> objects w then
            Alcotest.failf "%s #%d: cold %d objs, warm %d objs" name v
              (List.length (objects c))
              (List.length (objects w)))
    vars;
  P.Jmp_store.n_hits store

let test_preseed_ci_equivalence () =
  List.iter
    (fun name ->
      let suite = Option.get (P.Suite.build_by_name name) in
      let hits =
        check_warm_equals_cold ~name:("ci " ^ name) ~config:ci_budgetless
          ~context_sensitive:false suite
      in
      (* The seeds must actually serve traffic, or the warm path proved
         nothing. *)
      Alcotest.(check bool) (name ^ ": seeds were hit") true (hits > 0))
    [ "tiny"; "_200_check" ]

let test_preseed_cs_equivalence () =
  (* The context-sensitive engine only accepts empty CI heap-step sets;
     answers must be bit-identical to a cold run at the same config. *)
  let config =
    P.Config.with_budget max_int P.Config.default
  in
  List.iter
    (fun name ->
      let suite = Option.get (P.Suite.build_by_name name) in
      ignore
        (check_warm_equals_cold ~name:("cs " ^ name) ~config
           ~context_sensitive:true suite))
    [ "tiny"; "_200_check" ]

(* End to end through the service: a pre-seeded service and a cold one
   answer the same query stream identically (modulo step accounting). *)
let test_preseed_service_equivalence () =
  let b = Option.get (P.Suite.build_by_name "tiny") in
  let answers ~context_sensitive ~preseed =
    let config =
      {
        P.Service.default_config with
        P.Service.threads = 1;
        max_batch = 8;
        context_sensitive;
        preseed;
      }
    in
    let svc =
      P.Service.create ~config ~type_level:b.P.Suite.type_level b.P.Suite.pag
    in
    if preseed then
      Alcotest.(check bool) "service reports seeds" true
        (P.Svc_engine.preseeded_edges (P.Service.engine svc) > 0);
    let results = Hashtbl.create 64 in
    Array.iteri
      (fun i v ->
        P.Service.submit svc ~now:0.0
          ~respond:(fun r ->
            let key =
              match r with
              | P.Svc_protocol.Answer { objects; _ } -> `Objs objects
              | P.Svc_protocol.Timeout { reason; _ } -> `Timeout reason
              | r -> `Other (P.Svc_protocol.response_to_string r)
            in
            Hashtbl.replace results i key)
          (P.Svc_protocol.Query
             {
               id = i;
               var = Printf.sprintf "#%d" v;
               budget = None;
               deadline_ms = None;
               trace = None;
             });
        ignore (P.Service.pump svc ~now:0.0))
      b.P.Suite.queries;
    results
  in
  List.iter
    (fun context_sensitive ->
      let cold = answers ~context_sensitive ~preseed:false in
      let warm = answers ~context_sensitive ~preseed:true in
      Alcotest.(check int)
        "both sides answered everything" (Hashtbl.length cold)
        (Hashtbl.length warm);
      Hashtbl.iter
        (fun i c ->
          match Hashtbl.find_opt warm i with
          | Some w when w = c -> ()
          | _ ->
              Alcotest.failf "query %d: cold and warm answers differ (cs=%b)"
                i context_sensitive)
        cold)
    [ true; false ]

let suite =
  ( "matrix",
    [
      Alcotest.test_case "kernel = Andersen (tiny)" `Quick test_kernel_tiny;
      Alcotest.test_case "kernel thread counts agree" `Slow
        test_kernel_threads_agree;
      Alcotest.test_case "kernel = Andersen (all profiles)" `Slow
        test_kernel_all_profiles;
      QCheck_alcotest.to_alcotest prop_kernel_random;
      Alcotest.test_case "kernel = demand (all suites, budgetless CI)" `Slow
        test_kernel_vs_demand_suites;
      Alcotest.test_case "kernel = demand oracle (tiny)" `Quick
        test_kernel_vs_oracle_tiny;
      Alcotest.test_case "preseed CI: warm = cold" `Slow
        test_preseed_ci_equivalence;
      Alcotest.test_case "preseed CS: warm = cold" `Slow
        test_preseed_cs_equivalence;
      Alcotest.test_case "preseeded service = cold service" `Quick
        test_preseed_service_equivalence;
    ] )

(* The whole-program bitset matrix backend (lib/matrix), checked
   differentially against the other two backends:

   - kernel = Andersen on handwritten, generated and random PAGs (two
     independent whole-program implementations of the same fixpoint);
   - kernel = the demand solver at budgetless context-insensitive
     settings, on every Suite workload's query population. *)

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
    ] )

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

let kernel_vs_andersen pag =
  let k = P.Matrix.solve pag in
  let a = P.Andersen.solve pag in
  let bad = ref [] in
  for v = 0 to P.Pag.n_vars pag - 1 do
    if P.Matrix.points_to_list k v <> P.Andersen.points_to_list a v then
      bad := v :: !bad
  done;
  !bad

let test_kernel_tiny () =
  let pag = pag_of_profile P.Profile.tiny in
  Alcotest.(check (list int)) "kernel = Andersen" [] (kernel_vs_andersen pag)

let test_kernel_all_profiles () =
  List.iter
    (fun p ->
      let pag = pag_of_profile p in
      match kernel_vs_andersen pag with
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

(* A denser soup than {!Test_oracle.random_pag_gen} (40 vars, 10 objects,
   3 fields, up to 150 edges), so the kernel's condensation has real work:
   copy-SCCs of several members whose loads and stores belong to different
   members, and cycles that close only through an (object, field) node. *)
let large_n_vars = 40
let large_n_objs = 10

let large_pag_gen =
  QCheck.Gen.(
    let var = int_bound (large_n_vars - 1) and fld = int_bound 2 in
    list_size (int_bound 150)
      (frequency
         [
           (2, map2 (fun a o -> `New (a, o)) var (int_bound (large_n_objs - 1)));
           (4, map2 (fun a b -> `Assign (a, b)) var var);
           (1, map2 (fun a b -> `Gassign (a, b)) var var);
           (2, map3 (fun a b f -> `Load (a, b, f)) var var fld);
           (2, map3 (fun a f b -> `Store (a, f, b)) var fld var);
           (1, map3 (fun a i b -> `Param (a, i, b)) var (int_bound 3) var);
           (1, map3 (fun a i b -> `Ret (a, i, b)) var (int_bound 3) var);
         ]))

let build_large =
  Test_oracle.build_random ~n_vars:large_n_vars ~n_objs:large_n_objs

let prop_kernel_large_random =
  QCheck.Test.make ~name:"kernel = Andersen on dense random PAGs" ~count:200
    (QCheck.make large_pag_gen) (fun edges ->
      kernel_vs_andersen (build_large edges) = [])

(* The two shapes the dense generator exists for, read off an independent
   solve: a copy-SCC of 3+ members, and a cycle of the solved inclusion
   graph (copy edges plus the load/store edges Andersen's sets imply) whose
   variables span two or more copy-SCCs — one that closes only through a
   heap node. *)
let shapes pag =
  let n = P.Pag.n_vars pag in
  let succs v =
    let out = ref [] in
    P.Pag.iter_direct_succs pag v (fun w -> out := w :: !out);
    !out
  in
  let copy = P.Scc.compute ~n ~succs in
  let big = Array.exists (fun m -> List.length m >= 3) copy.P.Scc.members in
  let a = P.Andersen.solve pag in
  let heap = Hashtbl.create 16 and derived = Hashtbl.create 64 in
  let node o f =
    match Hashtbl.find_opt heap (o, f) with
    | Some h -> h
    | None ->
        let h = n + Hashtbl.length heap in
        Hashtbl.replace heap (o, f) h;
        h
  in
  P.Pag.iter_edges pag (function
    | P.Pag.Load { dst; base; field } ->
        List.iter
          (fun o -> Hashtbl.add derived (node o field) dst)
          (P.Andersen.points_to_list a base)
    | P.Pag.Store { base; field; src } ->
        List.iter
          (fun o -> Hashtbl.add derived src (node o field))
          (P.Andersen.points_to_list a base)
    | _ -> ());
  let full =
    P.Scc.compute
      ~n:(n + Hashtbl.length heap)
      ~succs:(fun v ->
        (if v < n then succs v else []) @ Hashtbl.find_all derived v)
  in
  let through_heap members =
    List.exists (fun v -> v >= n) members
    && List.length
         (List.sort_uniq compare
            (List.filter_map
               (fun v -> if v < n then Some copy.P.Scc.comp_of.(v) else None)
               members))
       >= 2
  in
  (big, Array.exists through_heap full.P.Scc.members)

let test_large_gen_shapes () =
  let samples =
    QCheck.Gen.generate ~rand:(Random.State.make [| 27 |]) ~n:200 large_pag_gen
  in
  let big, heap =
    List.fold_left
      (fun (b, h) edges ->
        let big, heap = shapes (build_large edges) in
        (b + Bool.to_int big, h + Bool.to_int heap))
      (0, 0) samples
  in
  Printf.printf "copy-SCCs of 3+: %d/200, heap-closed cycles: %d/200\n" big
    heap;
  if big < 50 || heap < 50 then
    Alcotest.failf
      "dense generator: %d/200 with a 3+ copy-SCC, %d/200 with a heap-closed \
       cycle (need 50 each)"
      big heap

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
      let k = P.Matrix.solve b.P.Suite.pag in
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
      Alcotest.test_case "kernel = Andersen (all profiles)" `Slow
        test_kernel_all_profiles;
      QCheck_alcotest.to_alcotest prop_kernel_random;
      QCheck_alcotest.to_alcotest prop_kernel_large_random;
      Alcotest.test_case "dense generator covers SCCs and heap cycles" `Quick
        test_large_gen_shapes;
      Alcotest.test_case "kernel = demand (all suites, budgetless CI)" `Slow
        test_kernel_vs_demand_suites;
      Alcotest.test_case "kernel = demand oracle (tiny)" `Quick
        test_kernel_vs_oracle_tiny;
    ] )

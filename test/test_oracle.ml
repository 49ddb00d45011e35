(* The centrepiece correctness argument: on Java-style PAGs, the
   context-insensitive field-sensitive CFL-reachability relation equals
   field-sensitive Andersen's analysis (Sridharan & Bodík). The solver in
   oracle mode (unbounded budget, exhaustive fixpoint) must therefore agree
   exactly with the independent Andersen implementation — on handwritten
   graphs and on randomly generated programs.

   The context-sensitive relation must be a subset of the insensitive one
   (context matching only removes paths). *)
module Pag = Parcfl.Pag
module Ctx = Parcfl.Ctx
module Config = Parcfl.Config
module Solver = Parcfl.Solver
module Query = Parcfl.Query
module Andersen = Parcfl.Andersen

let cfl_oracle_pts pag v =
  let s =
    Solver.make_session ~config:Config.oracle ~ctx_store:(Ctx.create_store ())
      pag
  in
  List.sort compare (Query.objects (Solver.points_to s v).Query.result)

let agree pag =
  let andersen = Andersen.solve pag in
  let s =
    Solver.make_session ~config:Config.oracle ~ctx_store:(Ctx.create_store ())
      pag
  in
  let bad = ref [] in
  for v = 0 to Pag.n_vars pag - 1 do
    let cfl =
      List.sort compare (Query.objects (Solver.points_to s v).Query.result)
    in
    let ref_ = Andersen.points_to_list andersen v in
    if cfl <> ref_ then bad := v :: !bad
  done;
  !bad

let subset_of_insensitive pag =
  (* A small depth cap keeps the context-sensitive fixpoint finite on
     adversarial random graphs (ret-edge cycles would otherwise spin out a
     tree of contexts); capping only over-approximates towards the
     insensitive relation, so the subset property is preserved. *)
  let sens_config =
    (* Also bound the budget: a query that exceeds it reports out-of-budget
       (empty set), which satisfies the subset property trivially; this
       keeps adversarial cyclic graphs from taking super-linear time. *)
    {
      Config.context_sensitive = true;
      max_ctx_depth = 3;
      budget = 60_000;
      exhaustive = false;
    }
  in
  let sens =
    Solver.make_session ~config:sens_config ~ctx_store:(Ctx.create_store ())
      pag
  in
  let insens =
    Solver.make_session ~config:Config.oracle ~ctx_store:(Ctx.create_store ())
      pag
  in
  let bad = ref [] in
  for v = 0 to Pag.n_vars pag - 1 do
    let s_pts = Query.objects (Solver.points_to sens v).Query.result in
    let i_pts = Query.objects (Solver.points_to insens v).Query.result in
    if not (List.for_all (fun o -> List.mem o i_pts) s_pts) then bad := v :: !bad
  done;
  !bad

let pag_of_profile p =
  let program = Parcfl.Genprog.generate p in
  let cg = Parcfl.Callgraph.build program in
  (Parcfl.Lower.lower program cg).Parcfl.Lower.pag

let test_tiny_profile () =
  let pag = pag_of_profile Parcfl.Profile.tiny in
  Alcotest.(check (list int)) "CFL = Andersen on tiny profile" [] (agree pag)

let test_benchmark_profile () =
  (* One real (small-ish) benchmark profile end to end. *)
  let p = Option.get (Parcfl.Profile.find "_200_check") in
  let pag = pag_of_profile p in
  Alcotest.(check (list int)) "CFL = Andersen on _200_check" [] (agree pag)

let test_cs_subset () =
  let pag = pag_of_profile Parcfl.Profile.tiny in
  Alcotest.(check (list int)) "context-sensitive subset" []
    (subset_of_insensitive pag)

(* Random PAG generator for property testing: a soup of edges over a small
   node space — not Java-shaped, but the equivalence holds for any PAG. *)
let random_pag_gen =
  QCheck.Gen.(
    let small = int_bound 7 in
    list_size (int_bound 24)
      (oneof
         [
           map2 (fun a b -> `New (a, b)) small (int_bound 4);
           map2 (fun a b -> `Assign (a, b)) small small;
           map2 (fun a b -> `Gassign (a, b)) small small;
           map3 (fun a b f -> `Load (a, b, f)) small small (int_bound 2);
           map3 (fun a f b -> `Store (a, f, b)) small (int_bound 2) small;
           map3 (fun a i b -> `Param (a, i, b)) small (int_bound 3) small;
           map3 (fun a i b -> `Ret (a, i, b)) small (int_bound 3) small;
         ]))

let build_random ?(n_vars = 8) ?(n_objs = 5) edges =
  let module B = Parcfl.Pag.Build in
  let b = B.create () in
  let vars = Array.init n_vars (fun i -> B.add_var b (Printf.sprintf "v%d" i)) in
  let objects = Array.init n_objs (fun i -> B.add_obj b (Printf.sprintf "o%d" i)) in
  List.iter
    (fun e ->
      match e with
      | `New (x, o) -> B.new_edge b ~dst:vars.(x) objects.(o)
      | `Assign (x, y) -> B.assign b ~dst:vars.(x) ~src:vars.(y)
      | `Gassign (x, y) -> B.assign_global b ~dst:vars.(x) ~src:vars.(y)
      | `Load (x, p, f) -> B.load b ~dst:vars.(x) ~base:vars.(p) f
      | `Store (q, f, y) -> B.store b ~base:vars.(q) f ~src:vars.(y)
      | `Param (x, i, y) -> B.param b ~dst:vars.(x) ~site:i ~src:vars.(y)
      | `Ret (x, i, y) -> B.ret b ~dst:vars.(x) ~site:i ~src:vars.(y))
    edges;
  B.freeze b

let prop_oracle_random =
  QCheck.Test.make ~name:"CFL(oracle) = Andersen on random PAGs" ~count:150
    (QCheck.make random_pag_gen) (fun edges ->
      let pag = build_random edges in
      agree pag = [])

let prop_cs_subset_random =
  QCheck.Test.make ~name:"context-sensitive ⊆ insensitive on random PAGs"
    ~count:40 (QCheck.make random_pag_gen) (fun edges ->
      let pag = build_random edges in
      subset_of_insensitive pag = [])

let test_determinism () =
  let pag = pag_of_profile Parcfl.Profile.tiny in
  let a = Array.init (Pag.n_vars pag) (fun v -> cfl_oracle_pts pag v) in
  let b = Array.init (Pag.n_vars pag) (fun v -> cfl_oracle_pts pag v) in
  Alcotest.(check bool) "two runs agree" true (a = b)

let suite =
  ( "oracle",
    [
      Alcotest.test_case "tiny profile" `Quick test_tiny_profile;
      Alcotest.test_case "_200_check profile" `Slow test_benchmark_profile;
      Alcotest.test_case "context-sensitive subset" `Quick test_cs_subset;
      QCheck_alcotest.to_alcotest prop_oracle_random;
      QCheck_alcotest.to_alcotest prop_cs_subset_random;
      Alcotest.test_case "determinism" `Quick test_determinism;
    ] )

(* Witness extraction: explain must return a coherent edge chain for facts
   it derived, and None for non-facts. *)
module Pag = Parcfl.Pag
module B = Parcfl.Pag.Build
module Ctx = Parcfl.Ctx
module Config = Parcfl.Config
module Solver = Parcfl.Solver
module W = Parcfl.Solver.Witness

let session pag =
  Solver.make_session ~config:Config.default ~ctx_store:(Ctx.create_store ())
    pag

let test_assign_chain () =
  let b = B.create () in
  let x = B.add_var b "x" in
  let y = B.add_var b "y" in
  let z = B.add_var b "z" in
  let o = B.add_obj b "o" in
  B.new_edge b ~dst:x o;
  B.assign b ~dst:y ~src:x;
  B.assign b ~dst:z ~src:y;
  let pag = B.freeze b in
  let s = session pag in
  match Solver.explain s z o with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      Alcotest.(check int) "object" o w.W.obj;
      let vars = List.map (fun st -> st.W.var) w.W.steps in
      Alcotest.(check (list int)) "path z <- y <- x" [ z; y; x ] vars;
      (match (w.W.steps : W.step list) with
      | { via = W.Start; _ } :: rest ->
          List.iter
            (fun st ->
              match st.W.via with
              | W.Assign -> ()
              | _ -> Alcotest.fail "expected assign steps")
            rest
      | _ -> Alcotest.fail "first step must be Start")

let test_param_ret_steps () =
  let b = B.create () in
  let a1 = B.add_var b "a1" in
  let formal = B.add_var b "formal" in
  let r1 = B.add_var b "r1" in
  let o = B.add_obj b "o" in
  B.new_edge b ~dst:a1 o;
  B.param b ~dst:formal ~site:7 ~src:a1;
  B.ret b ~dst:r1 ~site:7 ~src:formal;
  let pag = B.freeze b in
  let s = session pag in
  match Solver.explain s r1 o with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      let vias = List.map (fun st -> st.W.via) w.W.steps in
      Alcotest.(check bool) "has ret then param step" true
        (vias = [ W.Start; W.Ret 7; W.Param 7 ])

let test_heap_step () =
  let b = B.create () in
  let p = B.add_var b "p" in
  let q = B.add_var b "q" in
  let a = B.add_var b "a" in
  let x = B.add_var b "x" in
  let op = B.add_obj b "op" in
  let oa = B.add_obj b "oa" in
  B.new_edge b ~dst:p op;
  B.assign b ~dst:q ~src:p;
  B.new_edge b ~dst:a oa;
  B.store b ~base:q 3 ~src:a;
  B.load b ~dst:x ~base:p 3;
  let pag = B.freeze b in
  let s = session pag in
  match Solver.explain s x oa with
  | None -> Alcotest.fail "expected a witness"
  | Some w -> (
      match w.W.steps with
      | [
       { via = W.Start; var; _ };
       { via = W.Heap { field; load_base; store_base }; var = va; _ };
      ] ->
          Alcotest.(check int) "query var" x var;
          Alcotest.(check int) "reaches store source" a va;
          Alcotest.(check int) "field" 3 field;
          Alcotest.(check int) "load base" p load_base;
          Alcotest.(check int) "store base" q store_base
      | _ -> Alcotest.fail "expected Start + Heap steps")

let test_non_fact () =
  let b = B.create () in
  let x = B.add_var b "x" in
  let y = B.add_var b "y" in
  let o = B.add_obj b "o" in
  B.new_edge b ~dst:y o;
  let pag = B.freeze b in
  let s = session pag in
  Alcotest.(check bool) "no witness for non-fact" true
    (Solver.explain s x o = None)

let test_witness_pp () =
  let b = B.create () in
  let x = B.add_var b "x" in
  let y = B.add_var b "y" in
  let o = B.add_obj b "obj0" in
  B.new_edge b ~dst:x o;
  B.assign b ~dst:y ~src:x;
  let pag = B.freeze b in
  let store = Ctx.create_store () in
  let s = Solver.make_session ~config:Config.default ~ctx_store:store pag in
  match Solver.explain s y o with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      let out = Format.asprintf "%a" (W.pp pag store) w in
      let has sub =
        let ls = String.length out and lb = String.length sub in
        let rec go i = i + lb <= ls && (String.sub out i lb = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions query" true (has "query y");
      Alcotest.(check bool) "mentions allocation" true (has "obj0")

(* Every object the solver reports must be explainable, and the witness
   must end at a variable that actually holds the new edge. *)
let test_witness_completeness () =
  let bench = Parcfl.Suite.build Parcfl.Profile.tiny in
  let pag = bench.Parcfl.Suite.pag in
  let s = session pag in
  let checked = ref 0 in
  Array.iter
    (fun v ->
      if !checked < 30 then
        match (Solver.points_to s v).Parcfl.Query.result with
        | Parcfl.Query.Out_of_budget -> ()
        | Parcfl.Query.Points_to pairs ->
            List.iter
              (fun (o, _) ->
                if !checked < 30 then begin
                  incr checked;
                  match Solver.explain s v o with
                  | None ->
                      Alcotest.failf "no witness for %s -> %s"
                        (Pag.var_name pag v) (Pag.obj_name pag o)
                  | Some w -> (
                      match List.rev w.W.steps with
                      | last :: _ ->
                          Alcotest.(check bool) "ends at the allocation" true
                            (Array.exists (fun o' -> o' = o)
                               (Pag.new_in pag last.W.var))
                      | [] -> Alcotest.fail "empty witness")
                end)
              pairs)
    bench.Parcfl.Suite.queries;
  Alcotest.(check bool) "checked some facts" true (!checked > 0)

(* One traced run explains a whole answer exactly as one [explain] call
   per object does, non-facts included; a traced run that exhausts its
   budget leaves every entry [None]. *)
let test_explain_many () =
  let bench = Parcfl.Suite.build Parcfl.Profile.tiny in
  let pag = bench.Parcfl.Suite.pag in
  let s = session pag in
  let witnesses = ref 0 in
  Array.iter
    (fun v ->
      let answer =
        Parcfl.Query.objects (Solver.points_to s v).Parcfl.Query.result
      in
      let non_facts =
        List.filter
          (fun o -> not (List.mem o answer))
          (List.init (Pag.n_objs pag) Fun.id)
      in
      let objs = answer @ List.filteri (fun i _ -> i < 2) non_facts in
      let many = Solver.explain_many s v objs in
      List.iter2
        (fun o w ->
          if w <> Solver.explain s v o then
            Alcotest.failf "explain_many differs from explain at (%s, %s)"
              (Pag.var_name pag v) (Pag.obj_name pag o);
          if w <> None then incr witnesses)
        objs many)
    bench.Parcfl.Suite.queries;
  Alcotest.(check bool) "explained some facts" true (!witnesses > 0);
  let b = B.create () in
  let x = B.add_var b "x" in
  let y = B.add_var b "y" in
  let z = B.add_var b "z" in
  let o = B.add_obj b "o" in
  B.new_edge b ~dst:x o;
  B.assign b ~dst:y ~src:x;
  B.assign b ~dst:z ~src:y;
  let pag = B.freeze b in
  let starved =
    Solver.make_session
      ~config:{ Config.default with budget = 1 }
      ~ctx_store:(Ctx.create_store ()) pag
  in
  Alcotest.(check bool) "single explain starves" true
    (Solver.explain starved z o = None);
  Alcotest.(check bool) "every entry None when the budget runs out" true
    (Solver.explain_many starved z [ o; o ] = [ None; None ]);
  Alcotest.(check bool) "the same chain explains with a budget" true
    (Solver.explain_many (session pag) z [ o ] <> [ None ])

let suite =
  ( "witness",
    [
      Alcotest.test_case "assign chain" `Quick test_assign_chain;
      Alcotest.test_case "param/ret steps" `Quick test_param_ret_steps;
      Alcotest.test_case "heap step" `Quick test_heap_step;
      Alcotest.test_case "non-fact" `Quick test_non_fact;
      Alcotest.test_case "pretty printing" `Quick test_witness_pp;
      Alcotest.test_case "completeness on generated code" `Quick
        test_witness_completeness;
      Alcotest.test_case "explain_many = explain per object" `Quick
        test_explain_many;
    ] )

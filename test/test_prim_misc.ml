(* Union_find, Rng, Pair_set. *)
module Union_find = Parcfl.Union_find
module Rng = Parcfl.Rng
module Pair_set = Parcfl.Pair_set

(* --------------------------- union-find --------------------------- *)

let test_uf_basic () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial classes" 6 (Union_find.n_classes uf);
  Union_find.union uf 0 1;
  Union_find.union uf 1 2;
  Union_find.union uf 4 5;
  Alcotest.(check bool) "0~2" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "0!~3" false (Union_find.same uf 0 3);
  Alcotest.(check int) "classes" 3 (Union_find.n_classes uf);
  let classes = Union_find.classes uf in
  let sizes =
    Array.to_list classes
    |> List.filter (fun c -> c <> [])
    |> List.map List.length
    |> List.sort compare
  in
  Alcotest.(check (list int)) "class sizes" [ 1; 2; 3 ] sizes

let prop_uf_transitive =
  QCheck.Test.make ~name:"union-find equivalence is transitive" ~count:200
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> Union_find.union uf a b) pairs;
      let ok = ref true in
      for a = 0 to 19 do
        for b = 0 to 19 do
          for c = 0 to 19 do
            if
              Union_find.same uf a b && Union_find.same uf b c
              && not (Union_find.same uf a c)
            then ok := false
          done
        done
      done;
      !ok)

(* ------------------------------ rng ------------------------------- *)

let test_rng_determinism () =
  let a = Rng.of_string_seed "tomcat" and b = Rng.of_string_seed "tomcat" in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.of_string_seed "xalan" in
  let zs = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_bounds () =
  let r = Rng.of_string_seed "bounds" in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    if x < 0 || x >= 7 then Alcotest.fail "Rng.int out of bounds";
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_shuffle () =
  let r = Rng.of_string_seed "shuffle" in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_rng_split () =
  let r = Rng.of_string_seed "split" in
  let child = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int child 100) in
  let ys = List.init 20 (fun _ -> Rng.int r 100) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* ---------------------------- pair_set ---------------------------- *)

let test_pair_set_basic () =
  let t = Pair_set.create () in
  Alcotest.(check bool) "fresh" true (Pair_set.add t 1 2);
  Alcotest.(check bool) "dup" false (Pair_set.add t 1 2);
  Alcotest.(check bool) "other ctx" true (Pair_set.add t 1 3);
  Alcotest.(check bool) "other var" true (Pair_set.add t 2 2);
  Alcotest.(check int) "cardinal" 3 (Pair_set.cardinal t);
  Alcotest.(check bool) "mem" true (Pair_set.mem t 1 3);
  Alcotest.(check bool) "not mem" false (Pair_set.mem t 3 1);
  Alcotest.(check (list int)) "find_firsts" [ 3; 2 ] (Pair_set.find_firsts t 1);
  Alcotest.(check (list int)) "find_firsts absent" [] (Pair_set.find_firsts t 9);
  Alcotest.(check bool) "mem_first" true (Pair_set.mem_first t 2);
  Alcotest.(check (list (pair int int)))
    "insertion order" [ (1, 2); (1, 3); (2, 2) ] (Pair_set.to_list t);
  Alcotest.(check (list int)) "firsts order" [ 1; 2 ] (Pair_set.firsts t)

(* The by-first chain index is built lazily on the first grouped lookup;
   interleaving adds with [iter_firsts]/[mem_first] forces repeated
   incremental replays and must give the same answers as [find_firsts]. *)
let test_pair_set_lazy_chains () =
  let t = Pair_set.create () in
  let firsts_via_iter a =
    let out = ref [] in
    Pair_set.iter_firsts t a (fun b -> out := b :: !out);
    List.rev !out
  in
  for b = 0 to 9 do
    ignore (Pair_set.add t (b mod 3) b);
    (* Query mid-stream: chains indexed so far must already be correct. *)
    Alcotest.(check (list int))
      (Printf.sprintf "iter_firsts agrees after add %d" b)
      (Pair_set.find_firsts t (b mod 3))
      (firsts_via_iter (b mod 3))
  done;
  Alcotest.(check (list int)) "chain 0" [ 9; 6; 3; 0 ] (firsts_via_iter 0);
  Alcotest.(check bool) "mem_first" true (Pair_set.mem_first t 2);
  ignore (Pair_set.add t 7 70);
  Alcotest.(check (list int)) "chain added after lookup" [ 70 ]
    (firsts_via_iter 7);
  Pair_set.clear t;
  Alcotest.(check int) "cleared" 0 (Pair_set.cardinal t);
  Alcotest.(check (list int)) "chains reset" [] (firsts_via_iter 0);
  ignore (Pair_set.add t 0 42);
  Alcotest.(check (list int)) "reuse after clear" [ 42 ] (firsts_via_iter 0)

let prop_pair_set_model =
  QCheck.Test.make ~name:"pair_set agrees with a list model" ~count:200
    QCheck.(list (pair (int_bound 20) (int_bound 20)))
    (fun pairs ->
      let t = Pair_set.create () in
      let model = ref [] in
      List.iter
        (fun (a, b) ->
          let fresh = not (List.mem (a, b) !model) in
          if fresh then model := !model @ [ (a, b) ];
          if Pair_set.add t a b <> fresh then failwith "add disagreed")
        pairs;
      Pair_set.to_list t = !model
      && Pair_set.cardinal t = List.length !model)

let suite =
  ( "prim-misc",
    [
      Alcotest.test_case "union-find basic" `Quick test_uf_basic;
      QCheck_alcotest.to_alcotest prop_uf_transitive;
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle;
      Alcotest.test_case "rng split" `Quick test_rng_split;
      Alcotest.test_case "pair_set basic" `Quick test_pair_set_basic;
      Alcotest.test_case "pair_set lazy chains" `Quick
        test_pair_set_lazy_chains;
      QCheck_alcotest.to_alcotest prop_pair_set_model;
    ] )

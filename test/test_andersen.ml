module Pag = Parcfl.Pag
module B = Parcfl.Pag.Build
module Andersen = Parcfl.Andersen
module Constraints = Parcfl.Constraints

let diamond () =
  (* x = new o; y = x; z = x; y.f = a (a = new oa); w = z.f *)
  let b = B.create () in
  let x = B.add_var b "x" in
  let y = B.add_var b "y" in
  let z = B.add_var b "z" in
  let a = B.add_var b "a" in
  let w = B.add_var b "w" in
  let o = B.add_obj b "o" in
  let oa = B.add_obj b "oa" in
  B.new_edge b ~dst:x o;
  B.assign b ~dst:y ~src:x;
  B.assign b ~dst:z ~src:x;
  B.new_edge b ~dst:a oa;
  B.store b ~base:y 0 ~src:a;
  B.load b ~dst:w ~base:z 0;
  (B.freeze b, (x, y, z, a, w, o, oa))

let test_basic () =
  let pag, (x, y, z, a, w, o, oa) = diamond () in
  let r = Andersen.solve pag in
  Alcotest.(check (list int)) "x" [ o ] (Andersen.points_to_list r x);
  Alcotest.(check (list int)) "y" [ o ] (Andersen.points_to_list r y);
  Alcotest.(check (list int)) "z" [ o ] (Andersen.points_to_list r z);
  Alcotest.(check (list int)) "a" [ oa ] (Andersen.points_to_list r a);
  Alcotest.(check (list int)) "w through heap" [ oa ]
    (Andersen.points_to_list r w);
  Alcotest.(check (list int)) "o.f" [ oa ]
    (Parcfl.Bitset.elements (Andersen.field_points_to r o 0));
  Alcotest.(check (list int)) "o.g empty" []
    (Parcfl.Bitset.elements (Andersen.field_points_to r o 1))

let test_constraints_extraction () =
  let pag, _ = diamond () in
  let c = Constraints.of_pag pag in
  Alcotest.(check int) "base" 2 (List.length c.Constraints.base);
  Alcotest.(check int) "copy" 2 (List.length c.Constraints.copy);
  Alcotest.(check int) "loads" 1 (List.length c.Constraints.loads);
  Alcotest.(check int) "stores" 1 (List.length c.Constraints.stores)

let test_param_ret_merge () =
  (* Andersen treats param/ret context-insensitively: both callers merge. *)
  let b = B.create () in
  let formal = B.add_var b "formal" in
  let a1 = B.add_var b "a1" in
  let a2 = B.add_var b "a2" in
  let r1 = B.add_var b "r1" in
  let o1 = B.add_obj b "o1" in
  let o2 = B.add_obj b "o2" in
  B.new_edge b ~dst:a1 o1;
  B.new_edge b ~dst:a2 o2;
  B.param b ~dst:formal ~site:1 ~src:a1;
  B.param b ~dst:formal ~site:2 ~src:a2;
  B.ret b ~dst:r1 ~site:1 ~src:formal;
  let pag = B.freeze b in
  let r = Andersen.solve pag in
  Alcotest.(check (list int)) "r1 merges both" [ o1; o2 ]
    (Andersen.points_to_list r r1)

let test_cycle () =
  (* x = y; y = x; y = new o — converges with both pointing to o. *)
  let b = B.create () in
  let x = B.add_var b "x" in
  let y = B.add_var b "y" in
  let o = B.add_obj b "o" in
  B.assign b ~dst:x ~src:y;
  B.assign b ~dst:y ~src:x;
  B.new_edge b ~dst:y o;
  let pag = B.freeze b in
  let r = Andersen.solve pag in
  Alcotest.(check (list int)) "x" [ o ] (Andersen.points_to_list r x);
  Alcotest.(check (list int)) "y" [ o ] (Andersen.points_to_list r y)

let test_heap_cycle () =
  (* n.next = n; x = n.next *)
  let b = B.create () in
  let n = B.add_var b "n" in
  let x = B.add_var b "x" in
  let o = B.add_obj b "o" in
  B.new_edge b ~dst:n o;
  B.store b ~base:n 0 ~src:n;
  B.load b ~dst:x ~base:n 0;
  let pag = B.freeze b in
  let r = Andersen.solve pag in
  Alcotest.(check (list int)) "x -> {o}" [ o ] (Andersen.points_to_list r x)

let suite =
  ( "andersen",
    [
      Alcotest.test_case "diamond heap flow" `Quick test_basic;
      Alcotest.test_case "constraint extraction" `Quick
        test_constraints_extraction;
      Alcotest.test_case "param/ret merge" `Quick test_param_ret_merge;
      Alcotest.test_case "copy cycle" `Quick test_cycle;
      Alcotest.test_case "heap cycle" `Quick test_heap_cycle;
    ] )

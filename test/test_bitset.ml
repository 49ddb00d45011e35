module Bitset = Parcfl.Bitset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let test_empty () =
  let t = Bitset.create () in
  check "empty has no 0" false (Bitset.mem t 0);
  check "empty has no 1000" false (Bitset.mem t 1000);
  check "is_empty" true (Bitset.is_empty t);
  check_int "cardinal" 0 (Bitset.cardinal t)

let test_add_mem () =
  let t = Bitset.create () in
  check "fresh add" true (Bitset.add t 3);
  check "dup add" false (Bitset.add t 3);
  check "mem" true (Bitset.mem t 3);
  check "not mem" false (Bitset.mem t 4);
  check_int "cardinal" 1 (Bitset.cardinal t)

let test_growth () =
  let t = Bitset.create ~capacity:4 () in
  check "add far" true (Bitset.add t 10_000);
  check "mem far" true (Bitset.mem t 10_000);
  check "low still absent" false (Bitset.mem t 1);
  check_int "cardinal" 1 (Bitset.cardinal t)

let test_remove () =
  let t = Bitset.of_list [ 1; 5; 9 ] in
  Bitset.remove t 5;
  check "removed" false (Bitset.mem t 5);
  check "kept" true (Bitset.mem t 9);
  Bitset.remove t 100_000 (* out of range: no-op *)

let test_union () =
  let a = Bitset.of_list [ 1; 2; 3 ] in
  let b = Bitset.of_list [ 3; 4; 500 ] in
  check "changed" true (Bitset.union_into ~dst:a ~src:b);
  check_list "union" [ 1; 2; 3; 4; 500 ] (Bitset.elements a);
  check "idempotent" false (Bitset.union_into ~dst:a ~src:b)

let test_subset_equal () =
  let a = Bitset.of_list [ 1; 2 ] in
  let b = Bitset.of_list [ 1; 2; 3 ] in
  check "a sub b" true (Bitset.subset a b);
  check "b not sub a" false (Bitset.subset b a);
  check "not equal" false (Bitset.equal a b);
  (* Different capacities but same contents must compare equal. *)
  let c = Bitset.create ~capacity:10_000 () in
  ignore (Bitset.add c 1);
  ignore (Bitset.add c 2);
  check "capacity-independent equal" true (Bitset.equal a c);
  check "empty subset of empty" true
    (Bitset.subset (Bitset.create ()) (Bitset.create ()))

let test_clear_copy () =
  let a = Bitset.of_list [ 7; 8 ] in
  let b = Bitset.copy a in
  Bitset.clear a;
  check "cleared" true (Bitset.is_empty a);
  check_list "copy unaffected" [ 7; 8 ] (Bitset.elements b)

let test_negative () =
  let t = Bitset.create () in
  Alcotest.check_raises "negative add" (Invalid_argument "Bitset.add: negative member")
    (fun () -> ignore (Bitset.add t (-1)));
  check "negative mem" false (Bitset.mem t (-3))

let test_word_boundaries () =
  (* The word-widened union/cardinal paths must treat bits straddling the
     64-bit lane edges (63/64, 127/128) and the byte tail identically to
     the old byte-at-a-time code. *)
  let edges = [ 0; 7; 8; 62; 63; 64; 65; 127; 128; 191; 511; 512; 515 ] in
  let t = Bitset.of_list edges in
  check_list "elements across word edges" edges (Bitset.elements t);
  check_int "cardinal across word edges" (List.length edges) (Bitset.cardinal t);
  let dst = Bitset.of_list [ 63 ] in
  check "union across word edges changes dst" true
    (Bitset.union_into ~dst ~src:t);
  check_list "union result" edges (Bitset.elements dst);
  check "union idempotent at word edges" false (Bitset.union_into ~dst ~src:t);
  (* A dst strictly wider than src: word loop must not read past src. *)
  let wide = Bitset.of_list [ 10_000 ] in
  check "narrow into wide" true (Bitset.union_into ~dst:wide ~src:(Bitset.of_list [ 64 ]));
  check_list "narrow into wide result" [ 64; 10_000 ] (Bitset.elements wide)

let test_union_trailing_zero_growth () =
  (* src with a huge capacity but only low set bits must not grow dst:
     union_into sizes dst to src's highest *set* byte. *)
  let src = Bitset.create ~capacity:65_536 () in
  ignore (Bitset.add src 9);
  let dst = Bitset.of_list [ 1 ] in
  ignore (Bitset.union_into ~dst ~src);
  check "dst not grown to src capacity" true (Bitset.capacity dst < 1024);
  check_list "contents" [ 1; 9 ] (Bitset.elements dst)

let test_intersects () =
  check "disjoint" false
    (Bitset.intersects (Bitset.of_list [ 1; 64 ]) (Bitset.of_list [ 2; 65 ]));
  check "shared low bit" true
    (Bitset.intersects (Bitset.of_list [ 3 ]) (Bitset.of_list [ 3; 999 ]));
  check "shared bit at word edge" true
    (Bitset.intersects (Bitset.of_list [ 64 ]) (Bitset.of_list [ 64 ]));
  check "shared bit beyond shorter capacity" false
    (Bitset.intersects (Bitset.of_list [ 1 ]) (Bitset.of_list [ 100_000 ]));
  check "empty vs empty" false
    (Bitset.intersects (Bitset.create ()) (Bitset.create ()));
  check "symmetric across capacities" true
    (Bitset.intersects (Bitset.of_list [ 100_000; 5 ]) (Bitset.of_list [ 5 ]))

let prop_intersects =
  QCheck.Test.make ~name:"intersects matches model" ~count:200
    QCheck.(pair (list (int_bound 300)) (list (int_bound 3000)))
    (fun (xs, ys) ->
      let a = Bitset.of_list xs and b = Bitset.of_list ys in
      Bitset.intersects a b = List.exists (fun x -> List.mem x ys) xs
      && Bitset.intersects a b = Bitset.intersects b a)

(* Properties against a reference implementation over int lists. *)
let test_union_cycle_capacity () =
  (* Regression: union cycles must not ping-pong the doubling growth into
     huge capacities (this once OOM-killed the Andersen BSP solver). *)
  let a = Bitset.of_list [ 100 ] and b = Bitset.of_list [ 200 ] in
  for _ = 1 to 60 do
    ignore (Bitset.union_into ~dst:a ~src:b);
    ignore (Bitset.union_into ~dst:b ~src:a)
  done;
  Alcotest.(check bool) "capacity stays proportional to members" true
    (Bitset.capacity a < 4096 && Bitset.capacity b < 4096);
  Alcotest.(check (list int)) "contents correct" [ 100; 200 ]
    (Bitset.elements a)

let prop_model =
  QCheck.Test.make ~name:"bitset agrees with a set model" ~count:200
    QCheck.(list (int_bound 300))
    (fun xs ->
      let t = Bitset.of_list xs in
      let model = List.sort_uniq compare xs in
      Bitset.elements t = model
      && Bitset.cardinal t = List.length model
      && List.for_all (Bitset.mem t) model)

let prop_union =
  QCheck.Test.make ~name:"union_into computes set union" ~count:200
    QCheck.(pair (list (int_bound 300)) (list (int_bound 3000)))
    (fun (xs, ys) ->
      let a = Bitset.of_list xs and b = Bitset.of_list ys in
      ignore (Bitset.union_into ~dst:a ~src:b);
      Bitset.elements a = List.sort_uniq compare (xs @ ys))

let prop_union_delta =
  QCheck.Test.make ~name:"union_into_delta records exactly the new members"
    ~count:200
    QCheck.(
      triple (list (int_bound 300)) (list (int_bound 3000))
        (list (int_bound 1000)))
    (fun (xs, ys, zs) ->
      let dst = Bitset.of_list xs
      and src = Bitset.of_list ys
      and delta = Bitset.of_list zs in
      let fresh = List.filter (fun y -> not (List.mem y xs)) ys in
      Bitset.union_into_delta ~dst ~delta ~src = (fresh <> [])
      && Bitset.elements dst = List.sort_uniq compare (xs @ ys)
      && Bitset.elements delta = List.sort_uniq compare (zs @ fresh))

let prop_subset =
  QCheck.Test.make ~name:"subset matches model" ~count:200
    QCheck.(pair (list (int_bound 64)) (list (int_bound 64)))
    (fun (xs, ys) ->
      let a = Bitset.of_list xs and b = Bitset.of_list ys in
      Bitset.subset a b
      = List.for_all (fun x -> List.mem x ys) (List.sort_uniq compare xs))

let suite =
  ( "bitset",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "add/mem" `Quick test_add_mem;
      Alcotest.test_case "growth" `Quick test_growth;
      Alcotest.test_case "remove" `Quick test_remove;
      Alcotest.test_case "union" `Quick test_union;
      QCheck_alcotest.to_alcotest prop_union_delta;
      Alcotest.test_case "subset/equal" `Quick test_subset_equal;
      Alcotest.test_case "clear/copy" `Quick test_clear_copy;
      Alcotest.test_case "union cycle capacity" `Quick
        test_union_cycle_capacity;
      Alcotest.test_case "negative members" `Quick test_negative;
      Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
      Alcotest.test_case "union trailing-zero growth" `Quick
        test_union_trailing_zero_growth;
      Alcotest.test_case "intersects" `Quick test_intersects;
      QCheck_alcotest.to_alcotest prop_intersects;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_union;
      QCheck_alcotest.to_alcotest prop_subset;
    ] )

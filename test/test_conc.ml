(* Concurrency substrate: counters, sharded map, work queue,
   domain pool. Multi-domain tests use 2-4 domains; on a single core they
   still exercise the synchronisation paths through time slicing. *)
module Counter = Parcfl.Counter
module Work_queue = Parcfl.Work_queue
module Domain_pool = Parcfl.Domain_pool

module Int_map = Parcfl.Sharded_map.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x * 0x9e3779b1 land max_int
end)

(* ----------------------------- counter ---------------------------- *)

let test_counter () =
  let c = Counter.create () in
  Counter.add c ~worker:0 5;
  Counter.add c ~worker:3 7;
  Counter.incr c ~worker:200 (* stripe wraps *);
  Alcotest.(check int) "sum" 13 (Counter.value c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c)

let test_counter_parallel () =
  let c = Counter.create () in
  Domain_pool.with_pool ~threads:4 (fun pool ->
      Domain_pool.run pool (fun ~worker ->
          for _ = 1 to 10_000 do
            Counter.incr c ~worker
          done));
  Alcotest.(check int) "parallel sum" 40_000 (Counter.value c)

let test_counter_explicit_stripes () =
  (* One stripe still sums correctly (all workers collide on it); many
     stripes wrap worker ids. *)
  List.iter
    (fun stripes ->
      let c = Counter.create ~stripes () in
      Domain_pool.with_pool ~threads:4 (fun pool ->
          Domain_pool.run pool (fun ~worker ->
              for _ = 1 to 5_000 do
                Counter.incr c ~worker
              done));
      Alcotest.(check int)
        (Printf.sprintf "sum with %d stripes" stripes)
        20_000 (Counter.value c))
    [ 1; 3; 64 ]

(* --------------------------- sharded map -------------------------- *)

let test_map_basic () =
  let m = Int_map.create ~shards:4 () in
  Alcotest.(check bool) "fresh add" true (Int_map.add_if_absent m 1 "a" = `Added);
  (match Int_map.add_if_absent m 1 "b" with
  | `Present "a" -> ()
  | _ -> Alcotest.fail "expected `Present a");
  Alcotest.(check (option string)) "find" (Some "a") (Int_map.find_opt m 1);
  Alcotest.(check bool) "mem" true (Int_map.mem m 1);
  Int_map.update m 2 (function None -> Some "x" | Some _ -> None);
  Alcotest.(check (option string)) "update insert" (Some "x") (Int_map.find_opt m 2);
  Int_map.update m 2 (fun _ -> None);
  Alcotest.(check (option string)) "update remove" None (Int_map.find_opt m 2);
  Int_map.remove m 1;
  Alcotest.(check int) "length" 0 (Int_map.length m)

let test_map_find_map () =
  let m = Int_map.create ~shards:2 () in
  ignore (Int_map.add_if_absent m 7 "seven");
  Alcotest.(check (option int)) "projects under the lock" (Some 5)
    (Int_map.find_map m 7 String.length);
  Alcotest.(check (option int)) "absent key" None
    (Int_map.find_map m 8 String.length)

let test_map_fold_clear () =
  let m = Int_map.create () in
  for i = 0 to 99 do
    ignore (Int_map.add_if_absent m i (string_of_int i))
  done;
  Alcotest.(check int) "length" 100 (Int_map.length m);
  let sum = Int_map.fold (fun k _ acc -> acc + k) m 0 in
  Alcotest.(check int) "fold" 4950 sum;
  Int_map.clear m;
  Alcotest.(check int) "cleared" 0 (Int_map.length m)

let test_map_size () =
  let m = Int_map.create ~shards:4 () in
  Alcotest.(check int) "empty" 0 (Int_map.size m);
  for i = 0 to 99 do
    ignore (Int_map.add_if_absent m i (string_of_int i))
  done;
  (* Quiescent, so the approximate count is exact and agrees with length. *)
  Alcotest.(check int) "size" 100 (Int_map.size m);
  Alcotest.(check int) "size = length" (Int_map.length m) (Int_map.size m);
  Int_map.remove m 0;
  Alcotest.(check int) "after remove" 99 (Int_map.size m);
  Int_map.clear m;
  Alcotest.(check int) "after clear" 0 (Int_map.size m)

let test_map_race () =
  (* Hammer add_if_absent from 4 domains: exactly one writer must win per
     key and everyone must agree on the winner afterwards. *)
  let m = Int_map.create ~shards:8 () in
  let winners = Array.make 1000 (-1) in
  let lock = Mutex.create () in
  Domain_pool.with_pool ~threads:4 (fun pool ->
      Domain_pool.run pool (fun ~worker ->
          for k = 0 to 999 do
            match Int_map.add_if_absent m k worker with
            | `Added ->
                Mutex.lock lock;
                if winners.(k) <> -1 then winners.(k) <- -2 (* double add! *)
                else winners.(k) <- worker;
                Mutex.unlock lock
            | `Present _ -> ()
          done));
  Array.iteri
    (fun k w ->
      if w = -2 then Alcotest.failf "key %d added twice" k;
      if w = -1 then Alcotest.failf "key %d never added" k;
      match Int_map.find_opt m k with
      | Some v when v = w -> ()
      | Some v -> Alcotest.failf "key %d: winner %d but stored %d" k w v
      | None -> Alcotest.failf "key %d lost" k)
    winners

(* --------------------------- work queue --------------------------- *)

let test_queue_order () =
  let q = Work_queue.of_list [ 10; 20; 30 ] in
  Alcotest.(check int) "remaining" 3 (Work_queue.remaining q);
  Alcotest.(check (option int)) "pop1" (Some 10) (Work_queue.pop q);
  Alcotest.(check (option int)) "pop2" (Some 20) (Work_queue.pop q);
  Alcotest.(check int) "remaining after two" 1 (Work_queue.remaining q);
  Alcotest.(check (option int)) "pop3" (Some 30) (Work_queue.pop q);
  Alcotest.(check (option int)) "drained" None (Work_queue.pop q);
  Alcotest.(check int) "remaining drained" 0 (Work_queue.remaining q)

let test_queue_parallel () =
  let n = 10_000 in
  let q = Work_queue.create (Array.init n (fun i -> i)) in
  let seen = Array.make n 0 in
  Domain_pool.with_pool ~threads:4 (fun pool ->
      Domain_pool.run pool (fun ~worker:_ ->
          let rec loop () =
            match Work_queue.pop q with
            | None -> ()
            | Some i ->
                (* Each index is handed out exactly once, so unsynchronised
                   increments cannot race. *)
                seen.(i) <- seen.(i) + 1;
                loop ()
          in
          loop ()));
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "item %d served %d times" i c)
    seen

(* --------------------------- domain pool --------------------------- *)

let test_pool_runs_all () =
  let hit = Array.make 3 false in
  Domain_pool.with_pool ~threads:3 (fun pool ->
      Domain_pool.run pool (fun ~worker -> hit.(worker) <- true);
      Alcotest.(check (array bool)) "all workers ran" [| true; true; true |] hit;
      (* Reusable for a second region. *)
      let count = Atomic.make 0 in
      Domain_pool.run pool (fun ~worker:_ ->
          ignore (Atomic.fetch_and_add count 1));
      Alcotest.(check int) "second region" 3 (Atomic.get count))

let test_pool_exception () =
  let raised =
    try
      Domain_pool.with_pool ~threads:2 (fun pool ->
          Domain_pool.run pool (fun ~worker ->
              if worker = 1 then failwith "boom");
          false)
    with Failure msg when msg = "boom" -> true
  in
  Alcotest.(check bool) "worker exception propagates" true raised

let test_pool_single_thread () =
  Domain_pool.with_pool ~threads:1 (fun pool ->
      let r = ref (-1) in
      Domain_pool.run pool (fun ~worker -> r := worker);
      Alcotest.(check int) "runs inline" 0 !r)

let suite =
  ( "conc",
    [
      Alcotest.test_case "counter" `Quick test_counter;
      Alcotest.test_case "counter parallel" `Quick test_counter_parallel;
      Alcotest.test_case "counter explicit stripes" `Quick
        test_counter_explicit_stripes;
      Alcotest.test_case "sharded map basic" `Quick test_map_basic;
      Alcotest.test_case "sharded map find_map" `Quick test_map_find_map;
      Alcotest.test_case "sharded map fold/clear" `Quick test_map_fold_clear;
      Alcotest.test_case "sharded map size" `Quick test_map_size;
      Alcotest.test_case "sharded map race" `Quick test_map_race;
      Alcotest.test_case "work queue order" `Quick test_queue_order;
      Alcotest.test_case "work queue parallel" `Quick test_queue_parallel;
      Alcotest.test_case "pool runs all workers" `Quick test_pool_runs_all;
      Alcotest.test_case "pool exception" `Quick test_pool_exception;
      Alcotest.test_case "pool single thread" `Quick test_pool_single_thread;
    ] )

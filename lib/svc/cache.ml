module Query = Parcfl_cfl.Query

type key = { ck_var : int; ck_budget : int }

module Map = Parcfl_conc.Sharded_map.Make (struct
  type t = key

  let equal a b = a.ck_var = b.ck_var && a.ck_budget = b.ck_budget

  let hash k =
    ((k.ck_var * 0x9e3779b1) lxor (k.ck_budget * 0x85ebca77)) land max_int
end)

type entry = { outcome : Query.outcome; mutable tick : int }

let age_buckets = 24

type t = {
  map : entry Map.t;
  cap : int;
  clock : int Atomic.t;
  evicted : int Atomic.t;
  age_hist : int array;  (* log2 buckets of tick-age at eviction *)
  age_lock : Mutex.t;
  evict_lock : Mutex.t;  (* single sweeper at a time; losers skip *)
}

let create ?(shards = 16) ~capacity () =
  if capacity <= 0 then invalid_arg "Svc.Cache.create: capacity must be > 0";
  {
    map = Map.create ~shards ();
    cap = capacity;
    clock = Atomic.make 0;
    evicted = Atomic.make 0;
    age_hist = Array.make age_buckets 0;
    age_lock = Mutex.create ();
    evict_lock = Mutex.create ();
  }

let capacity t = t.cap
let size t = Map.size t.map
let evictions t = Atomic.get t.evicted

let find t k =
  let tick = Atomic.fetch_and_add t.clock 1 in
  Map.find_map t.map k (fun e ->
      e.tick <- tick;
      e.outcome)

(* Drop the oldest entries until ~10% of the capacity is free again, so a
   stream of inserts pays for the sweep in amortised O(1). The fold/sort
   snapshot tolerates concurrent ticks: an entry touched between snapshot
   and removal is evicted a little unfairly, never unsafely. Only one
   sweeper may run at a time: concurrent inserters that each observe
   size > cap would otherwise all pay the O(n log n) sweep and jointly
   evict well below the watermark, so losers of the try-lock skip — the
   winner's sweep restores the target on its own. *)
let evict t =
  if Mutex.try_lock t.evict_lock then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.evict_lock)
      (fun () ->
        let snapshot =
          Map.fold (fun k e acc -> (e.tick, k) :: acc) t.map []
        in
        let arr = Array.of_list snapshot in
        Array.sort compare arr;
        let target = max 1 (t.cap - max 1 (t.cap / 10)) in
        let excess = Array.length arr - target in
        let now = Atomic.get t.clock in
        let bucket_of = Parcfl_stats.Histogram.bucket ~buckets:age_buckets in
        Mutex.lock t.age_lock;
        for i = 0 to excess - 1 do
          Map.remove t.map (snd arr.(i));
          Atomic.incr t.evicted;
          let age = max 0 (now - fst arr.(i)) in
          let b = bucket_of age in
          t.age_hist.(b) <- t.age_hist.(b) + 1
        done;
        Mutex.unlock t.age_lock)

let put t k outcome =
  let tick = Atomic.fetch_and_add t.clock 1 in
  Map.update t.map k (function
    | Some _ ->
        (* Replace the outcome, not just the recency tick: a re-put may
           upgrade a cached Out_of_budget to a real answer (e.g. after the
           jmp store warms up). *)
        Some { outcome; tick }
    | None -> Some { outcome; tick });
  if Map.size t.map > t.cap then evict t

let eviction_age_hist t =
  Mutex.lock t.age_lock;
  let copy = Array.copy t.age_hist in
  Mutex.unlock t.age_lock;
  copy

let clear t = Map.clear t.map

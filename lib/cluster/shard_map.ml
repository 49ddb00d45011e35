type t = {
  root_of : int array;
  n_shards : int;
  seed : int;
      (* perturbs every rendezvous weight; picked by [create_balanced]
         to even out a known load profile *)
  split : bool array;
      (* indexed by component root: true when the component is oversized
         and its members hash per-variable instead of per-root *)
}

let create ?(seed = 0) ~n_shards ~root_of () =
  if n_shards <= 0 then invalid_arg "Shard_map.create: n_shards must be > 0";
  let root_of = Array.copy root_of in
  let n = Array.length root_of in
  (* Component sizes, then the scheduler's load-balance rule (paper
     III-C) applied to sharding: a component far larger than the mean is
     exactly the outlier whose affinity would unbalance the cluster, so
     its members are rendezvous-hashed per variable instead of following
     their root. Repeats of one variable still land on one replica (the
     serving cache survives); only the outlier's cross-variable jmp
     reuse is traded for balance. "Far larger" is the scheduler's own
     threshold: larger than the mean. *)
  let sizes = Array.make n 0 in
  Array.iter
    (fun r ->
      if r < 0 || r >= n then
        invalid_arg "Shard_map.create: root out of range";
      sizes.(r) <- sizes.(r) + 1)
    root_of;
  let n_components =
    Array.fold_left (fun acc s -> if s > 0 then acc + 1 else acc) 0 sizes
  in
  let mean =
    if n_components = 0 then 0.0
    else float_of_int n /. float_of_int n_components
  in
  let split = Array.map (fun s -> s > 1 && float_of_int s > mean) sizes in
  { root_of; n_shards; seed; split }

let n_shards t = t.n_shards

let split_components t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.split

(* splitmix64 finaliser: cheap, stateless, and well-distributed enough
   that rendezvous weights behave like independent uniform draws. *)
let mix x =
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30))
      0xbf58476d1ce4e5b9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27))
      0x94d049bb133111ebL in
  Int64.logxor x (Int64.shift_right_logical x 31)

(* [seed = 0] leaves the weight exactly as the unseeded hash. *)
let weight ~seed key shard =
  mix
    (Int64.logxor
       (Int64.add (Int64.mul (Int64.of_int key) 0x9e3779b97f4a7c15L)
          (Int64.of_int shard))
       (Int64.of_int (seed * 0x9e3779b9)))

let owner_among t ~live key =
  let best = ref (-1) and best_w = ref Int64.min_int in
  for s = 0 to t.n_shards - 1 do
    if live.(s) then begin
      let w = weight ~seed:t.seed key s in
      (* Unsigned comparison so the full 64-bit range spreads evenly. *)
      let gt =
        Int64.unsigned_compare w !best_w > 0 || !best < 0
      in
      if gt then begin
        best := s;
        best_w := w
      end
    end
  done;
  if !best < 0 then invalid_arg "Shard_map.owner_among: no live shard";
  !best

(* The rendezvous key: the component root, except inside an oversized
   (split) component where every variable hashes independently. *)
let key t v =
  let r = t.root_of.(v) in
  if t.split.(r) then v else r

let all_live n = Array.make n true

let home t v =
  if v < 0 || v >= Array.length t.root_of then
    invalid_arg "Shard_map.home: variable out of range";
  owner_among t ~live:(all_live t.n_shards) (key t v)

let shard t ~live v =
  if v < 0 || v >= Array.length t.root_of then
    invalid_arg "Shard_map.shard: variable out of range";
  if Array.length live <> t.n_shards then
    invalid_arg "Shard_map.shard: live mask size mismatch";
  owner_among t ~live (key t v)

let seed t = t.seed

let shard_sizes t ~live =
  let sizes = Array.make t.n_shards 0 in
  (* Attribute every variable to its owner under [live] — split-aware,
     so the diagnostics match what the router actually routes. *)
  Array.iteri
    (fun v _ ->
      let s = owner_among t ~live (key t v) in
      sizes.(s) <- sizes.(s) + 1)
    t.root_of;
  sizes

(* The busiest shard's share of [load] with every shard live — the
   quantity [create_balanced] minimises. *)
let busiest_share t ~load =
  let live = all_live t.n_shards in
  let per = Array.make t.n_shards 0 in
  let total = ref 0 in
  Array.iteri
    (fun v w ->
      if w > 0 then begin
        let s = owner_among t ~live (key t v) in
        per.(s) <- per.(s) + w;
        total := !total + w
      end)
    load;
  if !total = 0 then 0.0
  else float_of_int (Array.fold_left max 0 per) /. float_of_int !total

let create_balanced ?(candidates = 16) ~n_shards ~root_of ~load () =
  if Array.length load <> Array.length root_of then
    invalid_arg "Shard_map.create_balanced: load length disagrees with vars";
  if candidates <= 0 then
    invalid_arg "Shard_map.create_balanced: candidates must be > 0";
  (* Any single hash seed can co-locate the heavy keys by bad luck; with
     the load profile in hand, placement is a choice, not a draw. Scan a
     handful of seeds and keep the one whose busiest live shard carries
     the smallest share — a static power-of-d-choices. The chosen seed is
     baked into the map, so drain/re-admit stability is untouched. *)
  let best = ref None in
  for s = 0 to candidates - 1 do
    let t = create ~seed:s ~n_shards ~root_of () in
    let share = busiest_share t ~load in
    match !best with
    | Some (bs, _) when bs <= share -> ()
    | _ -> best := Some (share, t)
  done;
  snd (Option.get !best)

let of_plan_balanced ?candidates ~n_shards ~load plan =
  create_balanced ?candidates ~n_shards
    ~root_of:(Parcfl_sched.Schedule.component_roots plan) ~load ()

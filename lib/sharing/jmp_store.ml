module Hooks = Parcfl_cfl.Hooks
module Ctx = Parcfl_pag.Ctx

module Key = struct
  (* (direction ⊕ variable, context): the direction bit is folded into the
     variable component so the key stays two machine ints. *)
  type t = int * int

  let make dir var ctx =
    let d = match dir with Hooks.Bwd -> 0 | Hooks.Fwd -> 1 in
    ((var lsl 1) lor d, Ctx.to_int ctx)

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 0x9e3779b1) lxor (b * 0x61C88647) land max_int
end

module Tbl = Parcfl_conc.Sharded_map.Make (Key)

type record_ = {
  mutable fin : Hooks.finished option;
  mutable unf : int option;
}

type t = {
  tbl : record_ Tbl.t;
  tau_f : int;
  tau_u : int;
  bwd_only : bool;
  n_fin : int Atomic.t;
  n_unf : int Atomic.t;
  n_hit : int Atomic.t;
  n_miss : int Atomic.t;
}

let create ?(shards = 64) ?(tau_f = 100) ?(tau_u = 10_000)
    ?(directions = `Both) () =
  {
    tbl = Tbl.create ~shards ();
    tau_f;
    tau_u;
    bwd_only = (directions = `Bwd_only);
    n_fin = Atomic.make 0;
    n_unf = Atomic.make 0;
    n_hit = Atomic.make 0;
    n_miss = Atomic.make 0;
  }

let skip t dir = t.bwd_only && dir = Hooks.Fwd

(* The [fin]/[unf] fields are mutated by record_finished/record_unfinished
   under the shard lock, so they must also be *read* under it: copying them
   out inside [find_map] is what makes a concurrent lookup see either the
   value before or after a racing record, never a mix. (Reading after
   [find_opt] returned — the previous code — raced with the writers.) *)
let lookup t dir var ctx ~steps =
  ignore steps;
  if skip t dir then Hooks.no_jmp
  else
    match
      Tbl.find_map t.tbl (Key.make dir var ctx) (fun r ->
          { Hooks.unfinished = r.unf; finished = r.fin })
    with
    | None ->
        ignore (Atomic.fetch_and_add t.n_miss 1);
        Hooks.no_jmp
    | Some l ->
        ignore (Atomic.fetch_and_add t.n_hit 1);
        l

(* The two record kinds share a key; updates go through the shard lock so a
   concurrent reader (which also holds the lock via find_opt) never sees a
   half-written record. First write of each kind wins. *)
let record_finished t dir var ctx ~cost ~targets =
  if cost >= t.tau_f && not (skip t dir) then begin
    let added = ref false in
    Tbl.update t.tbl (Key.make dir var ctx) (function
      | None ->
          added := true;
          Some { fin = Some { Hooks.cost; targets }; unf = None }
      | Some r ->
          if r.fin = None then begin
            added := true;
            r.fin <- Some { Hooks.cost; targets }
          end;
          Some r);
    if !added then ignore (Atomic.fetch_and_add t.n_fin 1)
  end

let record_unfinished t dir var ctx ~s =
  if s >= t.tau_u && not (skip t dir) then begin
    let added = ref false in
    Tbl.update t.tbl (Key.make dir var ctx) (function
      | None ->
          added := true;
          Some { fin = None; unf = Some s }
      | Some r ->
          if r.unf = None then begin
            added := true;
            r.unf <- Some s
          end;
          Some r);
    if !added then ignore (Atomic.fetch_and_add t.n_unf 1)
  end

let hooks t =
  {
    Hooks.lookup = (fun dir var ctx ~steps -> lookup t dir var ctx ~steps);
    record_finished =
      (fun dir var ctx ~cost ~targets ->
        record_finished t dir var ctx ~cost ~targets);
    record_unfinished =
      (fun dir var ctx ~s -> record_unfinished t dir var ctx ~s);
  }

let n_finished t = Atomic.get t.n_fin
let n_unfinished t = Atomic.get t.n_unf
let n_hits t = Atomic.get t.n_hit
let n_misses t = Atomic.get t.n_miss
let n_jumps t = n_finished t + n_unfinished t

let histogram t ~buckets =
  let bucket_of = Parcfl_stats.Histogram.bucket ~buckets in
  let fin = Array.make buckets 0 and unf = Array.make buckets 0 in
  let _ =
    Tbl.fold
      (fun _key r () ->
        (match r.fin with
        | Some { Hooks.cost; _ } ->
            let b = bucket_of cost in
            fin.(b) <- fin.(b) + 1
        | None -> ());
        match r.unf with
        | Some s ->
            let b = bucket_of s in
            unf.(b) <- unf.(b) + 1
        | None -> ())
      t.tbl ()
  in
  (fin, unf)

let clear t =
  Tbl.clear t.tbl;
  Atomic.set t.n_fin 0;
  Atomic.set t.n_unf 0;
  Atomic.set t.n_hit 0;
  Atomic.set t.n_miss 0

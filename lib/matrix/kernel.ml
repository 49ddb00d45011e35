module Bitset = Parcfl_prim.Bitset
module Vec = Parcfl_prim.Vec
module Domain_pool = Parcfl_conc.Domain_pool
module Pag = Parcfl_pag.Pag
module Constraints = Parcfl_andersen.Constraints

(* The whole-program backend as a bitset matrix computation. Nodes are the
   PAG variables plus demand-interned (object, field) heap nodes; the state
   is two ragged boolean matrices over that node space:

   - [pts]:  node -> object row (the points-to relation being computed)
   - [pred]: node -> node row (the inclusion edges discovered so far,
     stored as in-edges: [src ∈ pred(dst)] means pts(dst) ⊇ pts(src))

   Each BSP round multiplies the dirty vector from the previous round
   against [pred]: a node whose in-edge row intersects the dirty vector
   re-unions the rows of its dirty predecessors. Complex (load/store)
   constraints inject new [pred] bits between rounds. Where the worklist
   reference {!Parcfl_andersen.Solver} walks explicit successor lists,
   this kernel is driven entirely by row intersection against the dirty
   vector, which is what makes the union and candidate-selection loops
   word-parallel. *)

type t = {
  n_vars : int;
  n_nodes : int;
  pts : Bitset.t Vec.t;
  rounds : int;
}

let fld_key o f = (o lsl 24) lor f

let solve ?(threads = 1) pag =
  let c = Constraints.of_pag pag in
  let n_vars = c.Constraints.n_vars in
  let pts : Bitset.t Vec.t = Vec.create () in
  let pred : Bitset.t Vec.t = Vec.create () in
  let new_node () =
    let n = Vec.length pts in
    Vec.push pts (Bitset.create ());
    Vec.push pred (Bitset.create ());
    n
  in
  for _ = 1 to n_vars do
    ignore (new_node ())
  done;
  let fld_node = Hashtbl.create 256 in
  let node_of_fld k =
    match Hashtbl.find_opt fld_node k with
    | Some n -> n
    | None ->
        let n = new_node () in
        Hashtbl.replace fld_node k n;
        n
  in
  let loads_by_base = Constraints.loads_by_base c in
  let stores_by_base = Constraints.stores_by_base c in
  (* Raw-keyed pred bits already installed (or buffered): written only in
     the sequential merge phase, read concurrently by the workers. *)
  let edge_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun (x, o) -> ignore (Bitset.add (Vec.get pts x) o))
    c.Constraints.base;
  List.iter
    (fun (dst, src) ->
      if dst <> src then ignore (Bitset.add (Vec.get pred dst) src))
    c.Constraints.copy;
  let dirty = ref (Bitset.create ()) in
  for v = 0 to n_vars - 1 do
    if not (Bitset.is_empty (Vec.get pts v)) then ignore (Bitset.add !dirty v)
  done;
  let rounds = ref 0 in
  Domain_pool.with_pool ~threads (fun pool ->
      let nw = Domain_pool.threads pool in
      let worker_dirty = Array.init nw (fun _ -> Bitset.create ()) in
      let worker_edges = Array.make nw [] in
      while not (Bitset.is_empty !dirty) do
        incr rounds;
        let prev = !dirty in
        let n_nodes = Vec.length pts in
        (* Parallel phase: the node range is row-partitioned, so each pts
           row has exactly one writer. Reading a predecessor row that
           another worker is extending is a benign monotone race: any bits
           missed here were added by a worker that marked that row dirty,
           so the very next round re-unions them (and the final round, by
           definition, runs with no concurrent writes at all). *)
        Domain_pool.run pool (fun ~worker ->
            let wd = worker_dirty.(worker) in
            let edges = ref [] in
            let chunk = (n_nodes + nw - 1) / nw in
            let lo = worker * chunk
            and hi = min n_nodes ((worker + 1) * chunk) in
            for dst = lo to hi - 1 do
              let row = Vec.get pred dst in
              if Bitset.intersects row prev then begin
                let d = Vec.get pts dst in
                let changed = ref false in
                Bitset.iter
                  (fun src ->
                    if
                      Bitset.mem prev src
                      && Bitset.union_into ~dst:d ~src:(Vec.get pts src)
                    then changed := true)
                  row;
                if !changed then ignore (Bitset.add wd dst)
              end;
              (* Complex constraints: a base variable whose row grew last
                 round may imply new pred bits through its loads/stores. *)
              if dst < n_vars && Bitset.mem prev dst then begin
                let lds = loads_by_base.(dst)
                and sts = stores_by_base.(dst) in
                if lds <> [] || sts <> [] then
                  Bitset.iter
                    (fun o ->
                      List.iter
                        (fun (f, x) ->
                          let raw = n_vars + fld_key o f in
                          if not (Hashtbl.mem edge_seen (raw, x)) then
                            edges := (raw, x) :: !edges)
                        lds;
                      List.iter
                        (fun (f, y) ->
                          let raw = n_vars + fld_key o f in
                          if not (Hashtbl.mem edge_seen (y, raw)) then
                            edges := (y, raw) :: !edges)
                        sts)
                    (Vec.get pts dst)
              end
            done;
            worker_edges.(worker) <- !edges);
        (* Sequential merge: fold the per-worker dirty rows, intern the
           heap nodes named by buffered edges, install the pred bits and
           apply each new edge's first union immediately (so an edge whose
           source never changes again still transfers its row once). *)
        let next = Bitset.create () in
        Array.iter
          (fun wd ->
            ignore (Bitset.union_into ~dst:next ~src:wd);
            Bitset.clear wd)
          worker_dirty;
        let resolve raw = if raw < n_vars then raw else node_of_fld raw in
        Array.iteri
          (fun w l ->
            worker_edges.(w) <- [];
            List.iter
              (fun (sr, dr) ->
                if not (Hashtbl.mem edge_seen (sr, dr)) then begin
                  Hashtbl.replace edge_seen (sr, dr) ();
                  let src = resolve sr and dst = resolve dr in
                  if
                    src <> dst
                    && Bitset.add (Vec.get pred dst) src
                    && Bitset.union_into ~dst:(Vec.get pts dst)
                         ~src:(Vec.get pts src)
                  then ignore (Bitset.add next dst)
                end)
              l)
          worker_edges;
        dirty := next
      done);
  { n_vars; n_nodes = Vec.length pts; pts; rounds = !rounds }

let points_to t v =
  if v < 0 || v >= t.n_vars then invalid_arg "Matrix.Kernel.points_to";
  Vec.get t.pts v

let points_to_list t v = Bitset.elements (points_to t v)
let rounds t = t.rounds
let n_nodes t = t.n_nodes
let n_vars t = t.n_vars

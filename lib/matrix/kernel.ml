module Bitset = Parcfl_prim.Bitset
module Vec = Parcfl_prim.Vec
module Scc = Parcfl_prim.Scc
module Int_table = Parcfl_prim.Int_table
module Pag = Parcfl_pag.Pag
module Constraints = Parcfl_andersen.Constraints

(* The whole-program backend as a condensed, dirty-driven bitset
   computation (the paper's cycle removal, §IV-A, then Muravev-style
   dirty-block propagation).

   Nodes are the copy-SCCs of the PAG (every member of a cycle of
   assign/param/ret edges has one points-to set, so one row serves the
   whole component) plus demand-interned (object, field) heap nodes. Each
   node has a points-to row, a successor list of inclusion edges
   (pts(dst) ⊇ pts(src)) and two delta rows: the bits it gained in the
   previous round, and the bits it is gaining in this one.

   A round visits only the nodes the previous round dirtied. Each pushes
   its delta to its successors, and a base's delta fires the load/store
   rule on its new objects: every new edge transfers its source's full row
   once, later growth travels as deltas. A round reads only the previous
   round's deltas and writes only the next round's, so a delta is never
   read while it is being written, and the fixpoint is the same whatever
   order a round visits its nodes in. *)

type t = {
  scc : Scc.t;
  pts : Bitset.t Vec.t;
      (* node -> object row: the copy-SCCs are nodes [0, n_comps), the
         heap nodes follow *)
  rounds : int;
}

let fld_key o f = (o lsl 24) lor f
let edge_key src dst = (src lsl 31) lor dst

(* The copy relation's SCCs, numbered by this exact successor order:
   {!Parcfl_oracle.Oracle} assigns its row ids in component order, so the
   numbering is part of the snapshot format. *)
let copy_sccs pag =
  let succs v =
    let out = ref [] in
    Pag.iter_direct_succs pag v (fun w -> out := w :: !out);
    !out
  in
  Scc.compute ~n:(Pag.n_vars pag) ~succs

let solve pag =
  let c = Constraints.of_pag pag in
  let scc = copy_sccs pag in
  let comp = scc.Scc.comp_of and n_comps = scc.Scc.n_comps in
  let pts : Bitset.t Vec.t = Vec.create () in
  let succ : int Vec.t Vec.t = Vec.create () in
  (* [delta]: what each node gained last round, read this round; [next]:
     what it gains this round. Swapped between rounds. *)
  let delta : Bitset.t Vec.t ref = ref (Vec.create ()) in
  let next : Bitset.t Vec.t ref = ref (Vec.create ()) in
  let new_node () =
    Vec.push pts (Bitset.create ());
    Vec.push succ (Vec.create ());
    Vec.push !delta (Bitset.create ());
    Vec.push !next (Bitset.create ());
    Vec.length pts - 1
  in
  for _ = 1 to n_comps do
    ignore (new_node ())
  done;
  let heap = Int_table.create ~capacity:256 () in
  let node_of_fld o f =
    Int_table.find_or_add heap (fld_key o f) (fun _ -> new_node ())
  in
  let dirty = ref (Bitset.create ~capacity:n_comps ()) in
  let next_dirty = ref (Bitset.create ~capacity:n_comps ()) in
  let push ~src dst =
    if
      Bitset.union_into_delta ~dst:(Vec.get pts dst) ~delta:(Vec.get !next dst)
        ~src
    then ignore (Bitset.add !next_dirty dst)
  in
  let edges = Int_table.Set.create ~capacity:4096 () in
  let add_edge src dst =
    if src <> dst && Int_table.Set.add edges (edge_key src dst) then begin
      Vec.push (Vec.get succ src) dst;
      push ~src:(Vec.get pts src) dst
    end
  in
  (* Condensed copy edges first, while every row is still empty. *)
  List.iter
    (fun (dst, src) -> add_edge comp.(src) comp.(dst))
    c.Constraints.copy;
  List.iter
    (fun (x, o) ->
      let n = comp.(x) in
      if Bitset.add (Vec.get pts n) o then begin
        ignore (Bitset.add (Vec.get !next n) o);
        ignore (Bitset.add !next_dirty n)
      end)
    c.Constraints.base;
  (* A component's loads and stores are all of its members' ones. *)
  let loads = Array.make n_comps [] and stores = Array.make n_comps [] in
  List.iter
    (fun (x, p, f) -> loads.(comp.(p)) <- (f, comp.(x)) :: loads.(comp.(p)))
    c.Constraints.loads;
  List.iter
    (fun (q, f, y) -> stores.(comp.(q)) <- (f, comp.(y)) :: stores.(comp.(q)))
    c.Constraints.stores;
  let loads = Array.map (List.sort_uniq compare) loads in
  let stores = Array.map (List.sort_uniq compare) stores in
  let rounds = ref 0 in
  while not (Bitset.is_empty !next_dirty) do
    incr rounds;
    let cur = !next_dirty in
    next_dirty := !dirty;
    dirty := cur;
    let d = !next in
    next := !delta;
    delta := d;
    Bitset.iter
      (fun n ->
        let d = Vec.get !delta n in
        Vec.iter (fun s -> push ~src:d s) (Vec.get succ n);
        if n < n_comps then begin
          let lds = loads.(n) and sts = stores.(n) in
          if lds <> [] || sts <> [] then
            Bitset.iter
              (fun o ->
                List.iter (fun (f, x) -> add_edge (node_of_fld o f) x) lds;
                List.iter (fun (f, y) -> add_edge y (node_of_fld o f)) sts)
              d
        end;
        Bitset.clear d)
      cur;
    Bitset.clear cur
  done;
  { scc; pts; rounds = !rounds }

let components t = t.scc

let points_to t v =
  if v < 0 || v >= Array.length t.scc.Scc.comp_of then
    invalid_arg "Matrix.Kernel.points_to";
  Vec.get t.pts t.scc.Scc.comp_of.(v)

let points_to_list t v = Bitset.elements (points_to t v)
let rounds t = t.rounds

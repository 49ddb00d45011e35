module Pag = Parcfl_pag.Pag
module Ctx = Parcfl_pag.Ctx
module Pair_set = Parcfl_prim.Pair_set
module Vec = Parcfl_prim.Vec
module Int_table = Parcfl_prim.Int_table
module Pack = Parcfl_prim.Pack
module Counter = Parcfl_conc.Counter
module Tracer = Parcfl_obs.Tracer

type session = {
  pag : Pag.t;
  store : Ctx.store;
  config : Config.t;
  hooks : Hooks.t option;
  matcher : Matcher.t option;
  stats : Stats.t;
  tracer : Tracer.t option;
}

let make_session ?hooks ?matcher ?stats ?tracer ~config ~ctx_store pag =
  (match (hooks, config.Config.exhaustive) with
  | Some _, true ->
      invalid_arg
        "Solver.make_session: data sharing cannot be combined with \
         exhaustive fixpoint mode (replayed shortcuts would go stale)"
  | _ -> ());
  (match (hooks, matcher) with
  | Some _, Some _ ->
      invalid_arg
        "Solver.make_session: data sharing cannot be combined with a \
         refinement matcher (shared shortcuts recorded under the match \
         abstraction would poison precise queries)"
  | _ -> ());
  {
    pag;
    store = ctx_store;
    config;
    hooks;
    matcher;
    stats = (match stats with Some s -> s | None -> Stats.create ());
    tracer;
  }

let pag s = s.pag
let config s = s.config
let stats s = s.stats
let ctx_store s = s.store

exception Out_of_budget_exn of int
(** payload = BDG: an upper bound on the remaining budget at the abort
    point (0 for a plain budget exhaustion, [s] for an early termination
    through an Unfinished jmp). *)

(* Memo entry for a nested PointsTo/FlowsTo computation. The accumulator is
   monotone: recomputation (exhaustive mode) only ever adds. *)
type memo_entry = {
  acc : Pair_set.t;
  mutable active : bool;
  mutable stamp : int; (* iteration that last (re)computed this entry *)
}

(* Provenance for witness extraction (tracing mode): how a node was first
   reached in the top-level backward traversal. *)
type prov =
  | P_start
  | P_assign of Pag.var * Ctx.t
  | P_global of Pag.var * Ctx.t
  | P_param of int * Pag.var * Ctx.t
  | P_ret of int * Pag.var * Ctx.t
  | P_heap of {
      p_var : Pag.var;
      p_ctx : Ctx.t;
      field : Pag.field;
      load_base : Pag.var;
      store_base : Pag.var;
    }

type trace = {
  parents : prov Int_table.t; (* key = var⊕ctx *)
  facts : (int, Pag.var * Ctx.t) Hashtbl.t;
      (* (obj⊕ctx) -> node holding the new edge *)
}

(* Reusable per-depth scratch space. Memoised computes nest strictly
   (every nested PointsTo/FlowsTo goes through [memoized], which bumps
   [compute_depth]), so a traversal at depth d can own the depth-d [work] /
   [visited] while [ReachableNodes] — which runs at its caller's depth —
   uses the same record's [emit] / [alias] fields without clashing. *)
type scratch = {
  work : int Vec.t; (* packed var⊕ctx worklist *)
  visited : Int_table.Set.t; (* packed var⊕ctx *)
  emit : int Vec.t; (* buffered ReachableNodes emissions (sharing mode) *)
  alias : Pair_set.t; (* per-field alias accumulator *)
}

type qstate = {
  s : session;
  worker : int;
  mutable steps : int; (* budget steps: walked + charged via shortcuts *)
  mutable walked : int;
  (* Active ReachableNodes invocations (the paper's query-local set S), as
     parallel int stacks: direction, packed var⊕ctx, entry steps. *)
  fr_dir : int Vec.t; (* 0 = Bwd, 1 = Fwd *)
  fr_key : int Vec.t;
  fr_entry : int Vec.t;
  mutable early_terminated : bool;
  mutable used_partial : bool;
  mutable iteration : int;
  mutable grew : bool;
  mutable compute_depth : int;
  trace : trace option;
  no_sharing : bool;
  pt_memo : memo_entry Int_table.t; (* key = var⊕ctx *)
  ft_memo : memo_entry Int_table.t; (* key = obj⊕ctx *)
  scratches : scratch Vec.t; (* indexed by compute_depth *)
  (* Memo entries (and their Pair_set accumulators) are the bulk of a
     query's allocations, so they are recycled across queries: every entry
     handed to a memo table is logged, and [reset] moves the log into the
     pool for the next query to drain before allocating fresh ones. *)
  entry_pool : memo_entry Vec.t;
  entry_log : memo_entry Vec.t;
  (* Private site⊕parent → interned-id cache in front of the shared context
     store: [Ctx.push] takes a shard lock and boxes its key on every call,
     which dominates a small query's cost. Context ids are stable for the
     store's lifetime, so this survives [reset]. *)
  ctx_cache : int Int_table.t;
}

(* Node and ctx ids are width-checked at graph build / interning time
   (Pag.Build and the bounded Ctx store), so packing here is branch-free. *)
let[@inline] key a c = Pack.unsafe_pack a (Ctx.to_int c)

let fresh_qstate ?trace ?(no_sharing = false) s worker =
  {
    s;
    worker;
    steps = 0;
    walked = 0;
    fr_dir = Vec.create ();
    fr_key = Vec.create ();
    fr_entry = Vec.create ();
    early_terminated = false;
    used_partial = false;
    iteration = 0;
    grew = false;
    compute_depth = 0;
    trace;
    no_sharing;
    pt_memo = Int_table.create ~capacity:64 ();
    ft_memo = Int_table.create ~capacity:64 ();
    scratches = Vec.create ();
    entry_pool = Vec.create ();
    entry_log = Vec.create ();
    ctx_cache = Int_table.create ~capacity:64 ();
  }

(* Make the qstate ready for a fresh query without dropping any backing
   storage: memo clears are O(1) generation bumps, and the scratch pool is
   re-cleared lazily by the computes that use it. *)
let reset q =
  q.steps <- 0;
  q.walked <- 0;
  Vec.clear q.fr_dir;
  Vec.clear q.fr_key;
  Vec.clear q.fr_entry;
  q.early_terminated <- false;
  q.used_partial <- false;
  q.iteration <- 0;
  q.grew <- false;
  q.compute_depth <- 0;
  Int_table.clear q.pt_memo;
  Int_table.clear q.ft_memo;
  (* The cleared tables no longer reference their entries; recycle them. *)
  Vec.iter (fun e -> Vec.push q.entry_pool e) q.entry_log;
  Vec.clear q.entry_log

let scratch q =
  let d = q.compute_depth in
  while Vec.length q.scratches <= d do
    Vec.push q.scratches
      {
        work = Vec.create ();
        visited = Int_table.Set.create ();
        emit = Vec.create ();
        alias = Pair_set.create ();
      }
  done;
  Vec.get q.scratches d

(* Tracing is off the hot path until enabled: one [None] check per event. *)
let trace q kind ~var =
  match q.s.tracer with
  | None -> ()
  | Some tr -> Tracer.emit tr ~worker:q.worker kind ~var

(* One node traversal = one step (paper Section II-B3). *)
let bump q =
  q.steps <- q.steps + 1;
  q.walked <- q.walked + 1;
  Counter.incr q.s.stats.Stats.steps_walked ~worker:q.worker;
  if q.steps > q.s.config.Config.budget then raise (Out_of_budget_exn 0)

(* Context transfer functions. Traversing backwards (PointsTo), a [param_i]
   edge leaves the callee: match-and-pop; a [ret_i] edge enters it: push.
   Forwards (FlowsTo) the roles swap. Global assignments clear the context;
   context-insensitive call sites (collapsed recursion cycles) and the
   context-insensitive configuration leave it untouched. Both return the
   raw context id, [-1] for a failed match — the option box would be an
   allocation per call-edge traversal. *)

let ctx_push_i q cx site =
  let cfg = q.s.config in
  if not cfg.Config.context_sensitive then Ctx.to_int cx
  else if Pag.site_is_ci q.s.pag site then Ctx.to_int cx
  else if Ctx.depth q.s.store cx >= cfg.Config.max_ctx_depth then Ctx.to_int cx
  else begin
    let k = Pack.unsafe_pack site (Ctx.to_int cx) in
    let id = Int_table.get q.ctx_cache k ~default:(-1) in
    if id >= 0 then id
    else begin
      let id = Ctx.to_int (Ctx.push q.s.store cx site) in
      Int_table.set q.ctx_cache k id;
      id
    end
  end

let ctx_match_pop_i q cx site =
  let cfg = q.s.config in
  if not cfg.Config.context_sensitive then Ctx.to_int cx
  else if Pag.site_is_ci q.s.pag site then Ctx.to_int cx
  else if Ctx.is_empty cx then Ctx.to_int cx (* partially balanced prefix *)
  else if Ctx.top_site q.s.store cx = site then
    Ctx.to_int (Ctx.pop q.s.store cx)
  else -1

(* Generic memoised fixpoint cell. [compute] must only *add* to the
   accumulator. *)

(* Sentinel for the boxless memo lookup below; never entered in a table. *)
let no_entry = { acc = Pair_set.create (); active = false; stamp = 0 }

let take_entry q =
  let e =
    if Vec.length q.entry_pool > 0 then begin
      let e = Vec.pop_exn q.entry_pool in
      Pair_set.clear e.acc;
      e.active <- false;
      e.stamp <- 0;
      e
    end
    else { acc = Pair_set.create (); active = false; stamp = 0 }
  in
  Vec.push q.entry_log e;
  e

let memoized q tbl k compute =
  let e =
    let e = Int_table.get tbl k ~default:no_entry in
    if e != no_entry then e
    else begin
      let e = take_entry q in
      Int_table.set tbl k e;
      e
    end
  in
  if e.active then begin
    (* Cyclic dependence: serve the partial accumulator. *)
    q.used_partial <- true;
    e.acc
  end
  else if e.stamp = q.iteration then e.acc
  else begin
    (* Fresh (stamp 0 never equals a live iteration) or stale: compute. *)
    e.active <- true;
    q.compute_depth <- q.compute_depth + 1;
    (* Hand-rolled protect: [Fun.protect] allocates two closures per
       compute. The stamp is written even on a budget abort, matching the
       accumulate-then-retry contract of exhaustive mode. *)
    (try compute e.acc
     with exn ->
       q.compute_depth <- q.compute_depth - 1;
       e.active <- false;
       e.stamp <- q.iteration;
       raise exn);
    q.compute_depth <- q.compute_depth - 1;
    e.active <- false;
    e.stamp <- q.iteration;
    e.acc
  end

let acc_add q acc a c =
  if Pair_set.add acc a (Ctx.to_int c) then q.grew <- true

(* Consult the jmp store at a ReachableNodes entry (Algorithm 2 lines 2-8);
   fall back to [compute] and record the result (lines 9-22). Targets flow
   to the caller through [k]; without hooks they stream straight out of the
   computation, with hooks they are buffered (packed) in the depth's [emit]
   scratch so the recorded array and the delivery order match the
   no-sharing emission order exactly. *)
let with_sharing q dir x c (k : Pag.var -> Ctx.t -> unit)
    (compute : (Pag.var -> Ctx.t -> unit) -> unit) =
  match (if q.no_sharing then None else q.s.hooks) with
  | None -> compute k
  | Some h -> (
      let found = h.Hooks.lookup dir x c ~steps:q.walked in
      (match found.Hooks.unfinished with
      | Some s when q.s.config.Config.budget - q.steps < s ->
          q.early_terminated <- true;
          Counter.incr q.s.stats.Stats.early_terminations ~worker:q.worker;
          trace q Tracer.Early_term ~var:x;
          raise (Out_of_budget_exn s)
      | _ -> ());
      match found.Hooks.finished with
      | Some { Hooks.cost; targets } ->
          q.steps <- q.steps + cost;
          Counter.add q.s.stats.Stats.steps_jumped ~worker:q.worker cost;
          Counter.incr q.s.stats.Stats.jmp_taken ~worker:q.worker;
          trace q Tracer.Jmp_hit ~var:x;
          Array.iter (fun (y, cy) -> k y cy) targets
      | None ->
          let entry_steps = q.steps in
          let partial_before = q.used_partial in
          q.used_partial <- false;
          Vec.push q.fr_dir (match dir with Hooks.Bwd -> 0 | Hooks.Fwd -> 1);
          Vec.push q.fr_key (key x c);
          Vec.push q.fr_entry entry_steps;
          let buf = (scratch q).emit in
          Vec.clear buf;
          compute (fun y cy -> Vec.push buf (key y cy));
          ignore (Vec.pop_exn q.fr_dir);
          ignore (Vec.pop_exn q.fr_key);
          ignore (Vec.pop_exn q.fr_entry);
          let saw_partial = q.used_partial in
          q.used_partial <- partial_before || saw_partial;
          (* A result computed through a broken cycle may under-approximate;
             sharing it would leak the loss to other queries, so only exact
             results are recorded. *)
          if not saw_partial then
            h.Hooks.record_finished dir x c ~cost:(q.steps - entry_steps)
              ~targets:
                (Array.init (Vec.length buf) (fun i ->
                     let p = Vec.get buf i in
                     (Pack.hi p, Ctx.unsafe_of_int (Pack.lo p))));
          Vec.iter (fun p -> k (Pack.hi p) (Ctx.unsafe_of_int (Pack.lo p))) buf
      )

(* PointsTo(l, c): Algorithm 1. Returns the memo accumulator of (object,
   context) pairs. The traversal owns this depth's worklist/visited pair;
   nodes travel through both as packed var⊕ctx ints, and the per-edge-kind
   callbacks are hoisted out of the drain loop (reading the current node
   from [cur_v]/[cur_c]) so the steady state allocates nothing. *)
let rec points_to_set q l c : Pair_set.t =
  memoized q q.pt_memo (key l c) (fun acc ->
      let pag = q.s.pag in
      let sc = scratch q in
      let visited = sc.visited and work = sc.work in
      Int_table.Set.clear visited;
      Vec.clear work;
      (* Tracing records first-reach provenance, but only for the outermost
         traversal — nested alias-test traversals have their own roots and
         would break the parent chains. *)
      let tracing =
        match q.trace with
        | Some tr when q.compute_depth = 1 -> Some tr
        | _ -> None
      in
      let cur_v = ref l and cur_c = ref c in
      let push v cx =
        let p = key v cx in
        if Int_table.Set.add visited p then Vec.push work p
      in
      let push_traced tr v cx prov =
        let p = key v cx in
        if Int_table.Set.add visited p then begin
          if not (Int_table.mem tr.parents p) then
            Int_table.set tr.parents p prov;
          Vec.push work p
        end
      in
      let on_new o =
        let cx = !cur_c in
        acc_add q acc o cx;
        match tracing with
        | None -> ()
        | Some tr ->
            let fk = key o cx in
            if not (Hashtbl.mem tr.facts fk) then
              Hashtbl.add tr.facts fk (!cur_v, cx)
      in
      let on_assign y =
        match tracing with
        | None -> push y !cur_c
        | Some tr -> push_traced tr y !cur_c (P_assign (!cur_v, !cur_c))
      in
      let on_gassign y =
        match tracing with
        | None -> push y Ctx.empty
        | Some tr -> push_traced tr y Ctx.empty (P_global (!cur_v, !cur_c))
      in
      let on_param i y =
        let ci = ctx_match_pop_i q !cur_c i in
        if ci >= 0 then
          let cx' = Ctx.unsafe_of_int ci in
          match tracing with
          | None -> push y cx'
          | Some tr -> push_traced tr y cx' (P_param (i, !cur_v, !cur_c))
      in
      let on_ret i y =
        let ci = ctx_push_i q !cur_c i in
        if ci >= 0 then
          let cx' = Ctx.unsafe_of_int ci in
          match tracing with
          | None -> push y cx'
          | Some tr -> push_traced tr y cx' (P_ret (i, !cur_v, !cur_c))
      in
      (match tracing with
      | None -> push l c
      | Some tr -> push_traced tr l c P_start);
      while not (Vec.is_empty work) do
        let p = Vec.pop_exn work in
        let x = Pack.hi p in
        let cx = Ctx.unsafe_of_int (Pack.lo p) in
        cur_v := x;
        cur_c := cx;
        bump q;
        Pag.iter_new_in pag x on_new;
        Pag.iter_assign_in pag x on_assign;
        Pag.iter_gassign_in pag x on_gassign;
        (match tracing with
        | None -> reachable_nodes q x cx push
        | Some tr ->
            List.iter
              (fun (y, cy, (field, load_base, store_base)) ->
                push_traced tr y cy
                  (P_heap
                     { p_var = x; p_ctx = cx; field; load_base; store_base }))
              (reachable_nodes_annotated q x cx));
        Pag.iter_param_in pag x on_param;
        Pag.iter_ret_in pag x on_ret
      done)

(* FlowsTo(o, c): the forward dual; collects every (variable, context)
   reached — each is a flowsTo target of o. *)
and flows_to_set q o c : Pair_set.t =
  memoized q q.ft_memo (key o c) (fun acc ->
      let pag = q.s.pag in
      let sc = scratch q in
      let visited = sc.visited and work = sc.work in
      Int_table.Set.clear visited;
      Vec.clear work;
      let cur_c = ref c in
      let push v cx =
        let p = key v cx in
        if Int_table.Set.add visited p then Vec.push work p
      in
      let on_assign z = push z !cur_c in
      let on_gassign z = push z Ctx.empty in
      let on_param i z =
        let ci = ctx_push_i q !cur_c i in
        if ci >= 0 then push z (Ctx.unsafe_of_int ci)
      in
      let on_ret i z =
        let ci = ctx_match_pop_i q !cur_c i in
        if ci >= 0 then push z (Ctx.unsafe_of_int ci)
      in
      Pag.iter_new_out pag o (fun x -> push x c);
      while not (Vec.is_empty work) do
        let p = Vec.pop_exn work in
        let y = Pack.hi p in
        let cy = Ctx.unsafe_of_int (Pack.lo p) in
        cur_c := cy;
        bump q;
        acc_add q acc y cy;
        Pag.iter_assign_out pag y on_assign;
        Pag.iter_gassign_out pag y on_gassign;
        reachable_nodes_inv q y cy push;
        Pag.iter_param_out pag y on_param;
        Pag.iter_ret_out pag y on_ret
      done)

(* ReachableNodes(x, c), backward direction: for each load x = p.f and each
   store q.f = y with alias(p, q), the store's source y (in the context
   where q was reached) flows on into x — delivered through [k]. *)
and reachable_nodes q x c (k : Pag.var -> Ctx.t -> unit) : unit =
  let pag = q.s.pag in
  if Pag.has_load_in pag x then
    with_sharing q Hooks.Bwd x c k (fun emit ->
        let alias = (scratch q).alias in
        match q.s.matcher with
        | None ->
            (* No refinement abstraction: every load/store pair is alias-
               checked. [alias] is this depth's pooled accumulator, cleared
               per field; contexts reach [emit] through [cur_y] so no
               closure is built per store. Every pair examined is charged
               as a step: the paper's (unmemoised) FlowsTo calls
               re-traverse these nodes, so the budget must keep bounding
               the alias-test work even though our memo makes the
               traversal itself cheap. *)
            let cur_y = ref 0 in
            let emit_ctx ci = emit !cur_y (Ctx.unsafe_of_int ci) in
            let on_store qv y =
              cur_y := y;
              Pair_set.iter_firsts alias qv emit_ctx
            in
            let on_alias v cv =
              bump q;
              ignore (Pair_set.add alias v cv)
            in
            let on_obj o c0 =
              bump q;
              Pair_set.iter on_alias (flows_to_set q o (Ctx.unsafe_of_int c0))
            in
            let on_load f p =
              Pair_set.clear alias;
              if Pag.has_stores_of_field pag f then
                (* alias := ∪ FlowsTo(o, c0), indexed by variable for the
                   store-base matching. *)
                Pair_set.iter on_obj (points_to_set q p c);
              Pag.iter_stores_of_field pag f on_store
            in
            Pag.iter_load_in pag x on_load
        | Some m ->
            (* Refinement path (experimental mode, colder): unrefined pairs
               skip the alias check and conservatively match. *)
            Pag.iter_load_in pag x (fun f p ->
                let refined qv =
                  m.Matcher.is_refined ~dir:Hooks.Bwd ~anchor:x ~other_base:qv
                    ~field:f
                in
                Pair_set.clear alias;
                let any_refined = ref false in
                Pag.iter_stores_of_field pag f (fun qv _ ->
                    if refined qv then any_refined := true);
                if !any_refined then
                  Pair_set.iter
                    (fun o c0 ->
                      bump q;
                      Pair_set.iter
                        (fun v cv ->
                          bump q;
                          ignore (Pair_set.add alias v cv))
                        (flows_to_set q o (Ctx.unsafe_of_int c0)))
                    (points_to_set q p c);
                Pag.iter_stores_of_field pag f (fun qv y ->
                    if refined qv then
                      Pair_set.iter_firsts alias qv (fun ci ->
                          emit y (Ctx.unsafe_of_int ci))
                    else begin
                      (* match edge: assume the accesses alias (sound
                         over-approximation); context passes through *)
                      m.Matcher.note_match_used ~dir:Hooks.Bwd ~anchor:x
                        ~other_base:qv ~field:f;
                      bump q;
                      emit y c
                    end)))

(* Tracing variant of ReachableNodes: annotates each target with the
   (field, load base, store base) that produced it. Never consults the jmp
   store — replayed shortcuts carry no provenance. Cold by construction
   (only [explain] runs it), so it keeps the list-building style. *)
and reachable_nodes_annotated q x c :
    (Pag.var * Ctx.t * (Pag.field * Pag.var * Pag.var)) list =
  let pag = q.s.pag in
  let loads = Pag.load_in pag x in
  if Array.length loads = 0 then []
  else begin
    let rch = ref [] in
    Array.iter
      (fun (f, p) ->
        let pts_p = points_to_set q p c in
        let alias = Pair_set.create () in
        Pair_set.iter
          (fun o c0 ->
            bump q;
            Pair_set.iter
              (fun v cv ->
                bump q;
                ignore (Pair_set.add alias v cv))
              (flows_to_set q o (Ctx.unsafe_of_int c0)))
          pts_p;
        Array.iter
          (fun (qv, y) ->
            List.iter
              (fun c'' ->
                rch := (y, Ctx.unsafe_of_int c'', (f, p, qv)) :: !rch)
              (Pair_set.find_firsts alias qv))
          (Pag.stores_of_field pag f))
      loads;
    List.rev !rch
  end

(* ReachableNodesInv(y, c), forward direction: for each store q.f = y and
   each load x = p.f with alias(q, p), the flow continues into x. *)
and reachable_nodes_inv q y c (k : Pag.var -> Ctx.t -> unit) : unit =
  let pag = q.s.pag in
  if Pag.has_store_out pag y then
    with_sharing q Hooks.Fwd y c k (fun emit ->
        let alias = (scratch q).alias in
        match q.s.matcher with
        | None ->
            let cur_x = ref 0 in
            let emit_ctx ci = emit !cur_x (Ctx.unsafe_of_int ci) in
            let on_load xv p =
              cur_x := xv;
              Pair_set.iter_firsts alias p emit_ctx
            in
            let on_alias v cv =
              bump q;
              ignore (Pair_set.add alias v cv)
            in
            let on_obj o c0 =
              bump q;
              Pair_set.iter on_alias (flows_to_set q o (Ctx.unsafe_of_int c0))
            in
            let on_store f qv =
              Pair_set.clear alias;
              if Pag.has_loads_of_field pag f then
                Pair_set.iter on_obj (points_to_set q qv c);
              Pag.iter_loads_of_field pag f on_load
            in
            Pag.iter_store_out pag y on_store
        | Some m ->
            Pag.iter_store_out pag y (fun f qv ->
                let refined p =
                  m.Matcher.is_refined ~dir:Hooks.Fwd ~anchor:y ~other_base:p
                    ~field:f
                in
                Pair_set.clear alias;
                let any_refined = ref false in
                Pag.iter_loads_of_field pag f (fun _ p ->
                    if refined p then any_refined := true);
                if !any_refined then
                  Pair_set.iter
                    (fun o c0 ->
                      bump q;
                      Pair_set.iter
                        (fun v cv ->
                          bump q;
                          ignore (Pair_set.add alias v cv))
                        (flows_to_set q o (Ctx.unsafe_of_int c0)))
                    (points_to_set q qv c);
                Pag.iter_loads_of_field pag f (fun x p ->
                    if refined p then
                      Pair_set.iter_firsts alias p (fun ci ->
                          emit x (Ctx.unsafe_of_int ci))
                    else begin
                      m.Matcher.note_match_used ~dir:Hooks.Fwd ~anchor:y
                        ~other_base:p ~field:f;
                      bump q;
                      emit x c
                    end)))

(* OutOfBudget (Algorithm 2 lines 23-25): for each still-active
   ReachableNodes frame, record an Unfinished jmp edge whose threshold is
   min(B, BDG + steps - s0). Innermost frame first, as the old frame-list
   walk did. *)
let record_unfinished q bdg =
  match q.s.hooks with
  | None -> ()
  | Some h ->
      let b = q.s.config.Config.budget in
      for i = Vec.length q.fr_key - 1 downto 0 do
        let s = min b (bdg + q.steps - Vec.get q.fr_entry i) in
        let p = Vec.get q.fr_key i in
        let dir = if Vec.get q.fr_dir i = 0 then Hooks.Bwd else Hooks.Fwd in
        h.Hooks.record_unfinished dir (Pack.hi p)
          (Ctx.unsafe_of_int (Pack.lo p))
          ~s
      done

let run_query_with q var start =
  reset q;
  let s = q.s in
  trace q Tracer.Query_start ~var;
  let attempt () =
    let rec go () =
      q.iteration <- q.iteration + 1;
      q.grew <- false;
      let r = start q in
      if s.config.Config.exhaustive && q.grew then go () else r
    in
    go ()
  in
  match attempt () with
  | set ->
      Counter.incr s.stats.Stats.queries_answered ~worker:q.worker;
      trace q Tracer.Query_end ~var;
      (* Materialize the result in one pass (the accumulator is reused by
         the next query); reversed to preserve insertion order. *)
      let pairs = ref [] in
      Pair_set.iter
        (fun a c -> pairs := (a, Ctx.unsafe_of_int c) :: !pairs)
        set;
      Query.Points_to (List.rev !pairs)
  | exception Out_of_budget_exn bdg ->
      record_unfinished q bdg;
      Vec.clear q.fr_dir;
      Vec.clear q.fr_key;
      Vec.clear q.fr_entry;
      Counter.incr s.stats.Stats.queries_out_of_budget ~worker:q.worker;
      trace q Tracer.Budget_exhausted ~var;
      trace q Tracer.Query_end ~var;
      Query.Out_of_budget

let outcome_of var result q =
  {
    Query.var;
    result;
    steps_used = q.steps;
    steps_walked = q.walked;
    early_terminated = q.early_terminated;
    used_partial = q.used_partial;
  }

let make_qstate ?(worker = 0) s = fresh_qstate s worker

let points_to_with q l =
  outcome_of l (run_query_with q l (fun q -> points_to_set q l Ctx.empty)) q

let points_to_in ?(worker = 0) s l c =
  let q = fresh_qstate s worker in
  outcome_of l (run_query_with q l (fun q -> points_to_set q l c)) q

let points_to ?worker s l = points_to_in ?worker s l Ctx.empty

let flows_to ?(worker = 0) s o =
  let q = fresh_qstate s worker in
  outcome_of o (run_query_with q o (fun q -> flows_to_set q o Ctx.empty)) q

module Witness = struct
  type via =
    | Start
    | Assign
    | Global
    | Param of int
    | Ret of int
    | Heap of {
        field : Pag.field;
        load_base : Pag.var;
        store_base : Pag.var;
      }

  type step = {
    var : Pag.var;
    ctx : Ctx.t;
    via : via;
  }

  type t = {
    steps : step list;
    obj : Pag.obj;
    obj_ctx : Ctx.t;
  }

  let pp pag store ppf t =
    List.iter
      (fun s ->
        (match s.via with
        | Start -> Format.fprintf ppf "query %s" (Pag.var_name pag s.var)
        | Assign -> Format.fprintf ppf " <-assign- %s" (Pag.var_name pag s.var)
        | Global -> Format.fprintf ppf " <-assign_g- %s" (Pag.var_name pag s.var)
        | Param i ->
            Format.fprintf ppf " <-param_%d- %s" i (Pag.var_name pag s.var)
        | Ret i -> Format.fprintf ppf " <-ret_%d- %s" i (Pag.var_name pag s.var)
        | Heap { field; load_base; store_base } ->
            Format.fprintf ppf " <-heap(f%d: %s.f = _, _ = %s.f)- %s" field
              (Pag.var_name pag store_base)
              (Pag.var_name pag load_base)
              (Pag.var_name pag s.var));
        Format.fprintf ppf "@[<h>%a@]" (fun ppf c ->
            if not (Ctx.is_empty c) then Format.fprintf ppf "%a" (Ctx.pp store) c) s.ctx)
      t.steps;
    Format.fprintf ppf " <-new- %s" (Pag.obj_name pag t.obj)

  (* The PAG edges a witness claims to have followed, in traversal order:
     each step's [via] names how its variable was reached from the previous
     step's, a heap step expands to its matched load/store pair, and the
     chain closes with the holder's allocation edge. Purely structural — no
     graph lookups — so a caller can check the claims against any PAG. *)
  let edges w =
    let rec go prev = function
      | [] -> [ Pag.New { dst = prev.var; obj = w.obj } ]
      | cur :: rest ->
          let es =
            match cur.via with
            | Start -> [] (* malformed: only the first step starts *)
            | Assign -> [ Pag.Assign { dst = prev.var; src = cur.var } ]
            | Global -> [ Pag.Assign_global { dst = prev.var; src = cur.var } ]
            | Param i -> [ Pag.Param { dst = prev.var; site = i; src = cur.var } ]
            | Ret i -> [ Pag.Ret { dst = prev.var; site = i; src = cur.var } ]
            | Heap { field; load_base; store_base } ->
                [
                  Pag.Load { dst = prev.var; base = load_base; field };
                  Pag.Store { base = store_base; field; src = cur.var };
                ]
          in
          es @ go cur rest
    in
    match w.steps with [] -> [] | first :: rest -> go first rest

  let describe_edge pag e =
    let v = Pag.var_name pag in
    match e with
    | Pag.New { dst; obj } ->
        Printf.sprintf "new(%s <- %s)" (v dst) (Pag.obj_name pag obj)
    | Pag.Assign { dst; src } -> Printf.sprintf "assign(%s <- %s)" (v dst) (v src)
    | Pag.Assign_global { dst; src } ->
        Printf.sprintf "assign_g(%s <- %s)" (v dst) (v src)
    | Pag.Load { dst; base; field } ->
        Printf.sprintf "load(%s = %s.f%d)" (v dst) (v base) field
    | Pag.Store { base; field; src } ->
        Printf.sprintf "store(%s.f%d = %s)" (v base) field (v src)
    | Pag.Param { dst; site; src } ->
        Printf.sprintf "param_%d(%s <- %s)" site (v dst) (v src)
    | Pag.Ret { dst; site; src } ->
        Printf.sprintf "ret_%d(%s <- %s)" site (v dst) (v src)

  (* Machine verification: replay the witness edge-by-edge against a frozen
     PAG. The witness re-derives the answer iff its chain starts at the
     query variable, every claimed edge exists in the graph, and the chain
     terminates in the object's allocation (the final [New] edge [edges]
     appends). This is the differential the wire `explain` verb is held
     to. *)
  let replay pag ~query w =
    match w.steps with
    | [] -> Error "empty witness"
    | first :: rest ->
        if first.via <> Start then Error "first step is not the query"
        else if first.var <> query then
          Error
            (Printf.sprintf "witness starts at %s, not the query %s"
               (Pag.var_name pag first.var)
               (Pag.var_name pag query))
        else if List.exists (fun s -> s.via = Start) rest then
          Error "interior Start step"
        else
          let rec check = function
            | [] -> Ok ()
            | e :: es ->
                if Pag.has_edge pag e then check es
                else
                  Error
                    (Printf.sprintf "edge not in the PAG: %s"
                       (describe_edge pag e))
          in
          check (edges w)

  (* The chain as stable edge ids (see {!Pag.edge_id}), traversal order. *)
  let edge_ids pag w =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | e :: es -> (
          match Pag.edge_id pag e with
          | Some id -> go (id :: acc) es
          | None ->
              Error
                (Printf.sprintf "edge not in the PAG: %s" (describe_edge pag e)))
    in
    go [] (edges w)

  let depth w = List.length w.steps
end

(* Re-run [l]'s query with provenance tracing (sharing disabled — replayed
   shortcuts carry no provenance) and hand back the filled trace, or [None]
   when the budget ran out. *)
let traced_run s worker l =
  let tr =
    { parents = Int_table.create ~capacity:256 (); facts = Hashtbl.create 64 }
  in
  let q = fresh_qstate ~trace:tr ~no_sharing:true s worker in
  let run () =
    let rec go () =
      q.iteration <- q.iteration + 1;
      q.grew <- false;
      let r = points_to_set q l Ctx.empty in
      if s.config.Config.exhaustive && q.grew then go () else r
    in
    go ()
  in
  match run () with
  | exception Out_of_budget_exn _ -> None
  | _ -> Some tr

(* Each traced object's first recorded fact (any context), in the facts
   table's iteration order: object -> (object context, holder). *)
let holders_of_trace tr =
  let by_obj = Hashtbl.create 64 in
  Hashtbl.iter
    (fun fk holder ->
      let o = Pack.hi fk in
      if not (Hashtbl.mem by_obj o) then
        Hashtbl.add by_obj o (Pack.lo fk, holder))
    tr.facts;
  by_obj

(* Walk the trace's parent chain from [o]'s allocation holder back to the
   query variable. *)
let witness_of_trace tr holders o =
  match Hashtbl.find_opt holders o with
  | None -> None
  | Some (obj_ctx, (hx, hc)) ->
      (* Walk parents from the holder back to the query variable; the
         chain is acyclic by construction but guard anyway. *)
      let guard = Hashtbl.create 64 in
      let rec walk v c acc =
        let k = key v c in
        if Hashtbl.mem guard k then acc
        else begin
          Hashtbl.add guard k ();
          match Int_table.find tr.parents k with
          | None | Some P_start ->
              { Witness.var = v; ctx = c; via = Witness.Start } :: acc
          | Some (P_assign (pv, pc)) ->
              walk pv pc
                ({ Witness.var = v; ctx = c; via = Witness.Assign } :: acc)
          | Some (P_global (pv, pc)) ->
              walk pv pc
                ({ Witness.var = v; ctx = c; via = Witness.Global } :: acc)
          | Some (P_param (i, pv, pc)) ->
              walk pv pc
                ({ Witness.var = v; ctx = c; via = Witness.Param i } :: acc)
          | Some (P_ret (i, pv, pc)) ->
              walk pv pc
                ({ Witness.var = v; ctx = c; via = Witness.Ret i } :: acc)
          | Some (P_heap { p_var; p_ctx; field; load_base; store_base }) ->
              walk p_var p_ctx
                ({
                   Witness.var = v;
                   ctx = c;
                   via = Witness.Heap { field; load_base; store_base };
                 }
                :: acc)
        end
      in
      Some
        {
          Witness.steps = walk hx hc [];
          obj = o;
          obj_ctx = Ctx.unsafe_of_int obj_ctx;
        }

(* Explain why [l] may point to each of [os]: one traced re-run, then one
   parent walk per object. *)
let explain_many ?(worker = 0) s l os =
  match traced_run s worker l with
  | None -> List.map (fun _ -> None) os
  | Some tr ->
      let holders = holders_of_trace tr in
      List.map (witness_of_trace tr holders) os

let explain ?worker s l o =
  match explain_many ?worker s l [ o ] with [ w ] -> w | _ -> None

let may_alias ?(worker = 0) s v1 v2 =
  let o1 = points_to ~worker s v1 in
  let o2 = points_to ~worker s v2 in
  match (o1.Query.result, o2.Query.result) with
  | Query.Out_of_budget, _ | _, Query.Out_of_budget -> None
  | Query.Points_to p1, Query.Points_to p2 ->
      let objs1 = Hashtbl.create 16 in
      List.iter (fun (o, _) -> Hashtbl.replace objs1 o ()) p1;
      Some (List.exists (fun (o, _) -> Hashtbl.mem objs1 o) p2)

module Pag = Parcfl_pag.Pag
module Config = Parcfl_cfl.Config
module Mode = Parcfl_par.Mode
module Runner = Parcfl_par.Runner
module Report = Parcfl_par.Report
module Schedule = Parcfl_sched.Schedule
module Jmp_store = Parcfl_sharing.Jmp_store
module Ctx = Parcfl_pag.Ctx
module Domain_pool = Parcfl_conc.Domain_pool
module Oracle = Parcfl_oracle.Oracle
module Query = Parcfl_cfl.Query
module Json = Parcfl_obs.Json

(* Object names in wire form, built once per engine: each object's
   rank in name order — equal names share a rank, as
   [List.sort_uniq compare] folds them — and, per rank, the name's
   escaped JSON string token. *)
type names = { rank : int array; token : string array }

let names_of pag =
  let n = Pag.n_objs pag in
  let nm = Array.init n (Pag.obj_name pag) in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> String.compare nm.(a) nm.(b)) order;
  let rank = Array.make n 0 and distinct = ref [] and r = ref (-1) in
  Array.iteri
    (fun i o ->
      if i = 0 || nm.(o) <> nm.(order.(i - 1)) then begin
        incr r;
        distinct := nm.(o) :: !distinct
      end;
      rank.(o) <- !r)
    order;
  let token =
    Array.map
      (fun s ->
        let b = Buffer.create (String.length s + 2) in
        Json.escape_into b s;
        Buffer.contents b)
      (Array.of_list (List.rev !distinct))
  in
  { rank; token }

type t = {
  mode : Mode.t;
  threads : int;
  solver_config : Config.t;
  tau_f : int option;
  tau_u : int option;
  tracer : Parcfl_obs.Tracer.t option;
  pag : Pag.t;
  type_level : int -> int;
  plan : Schedule.plan;
  store : Jmp_store.t option;
  ctx_store : Ctx.store;
      (* jmp records carry context ids; the store that interned them must
         outlive them *)
  mutable rate : float option;  (* EWMA steps/second *)
  mutable oracle : Oracle.t option;  (* the O(1) CI answer tier *)
  names : names;  (* of [pag] *)
  mutable fragments : string array;
      (* the live oracle's rendered objects arrays, per distinct row; ""
         until the row's first hit. Replaced whenever [oracle] is. *)
  mutable pool : Domain_pool.t option;
      (* worker domains persist across batches — spawned on the first
         multi-threaded execute, joined by [shutdown] *)
}

let create ?(mode = Mode.Share_sched) ?(threads = 4) ?tau_f ?tau_u
    ?(solver_config = Config.default) ?tracer ~type_level pag =
  {
    mode;
    threads = max 1 threads;
    solver_config;
    tau_f;
    tau_u;
    tracer;
    pag;
    type_level;
    plan = Schedule.prepare ~pag ~type_level;
    store =
      (if Mode.uses_sharing mode then Some (Jmp_store.create ?tau_f ?tau_u ())
       else None);
    ctx_store = Ctx.create_store ();
    rate = None;
    oracle = None;
    names = names_of pag;
    fragments = [||];
    pool = None;
  }

(* [Seq] forces one thread inside the runner, so a pool would sit unused
   there; everywhere else the pool is sized exactly to [t.threads] as
   {!Runner.run} requires. *)
let worker_pool t =
  if t.threads <= 1 || t.mode = Mode.Seq then None
  else begin
    (match t.pool with
    | Some _ -> ()
    | None -> t.pool <- Some (Domain_pool.create ~threads:t.threads));
    t.pool
  end

let shutdown t =
  match t.pool with
  | Some pool ->
      t.pool <- None;
      Domain_pool.shutdown pool
  | None -> ()

let pag t = t.pag
let mode t = t.mode
let threads t = t.threads
let max_budget t = t.solver_config.Config.budget
let ctx_store t = t.ctx_store

(* Answer provenance: one traced re-derivation on a fresh hookless session
   (Algorithm 1 — replayed jmp shortcuts carry no provenance to record)
   over the live PAG and context store, under the engine's own solver
   config. Returns the witness for [obj] when it is in [var]'s points-to
   set within budget. *)
let explain t ~var ~obj =
  let s =
    Parcfl_cfl.Solver.make_session ~config:t.solver_config
      ~ctx_store:t.ctx_store t.pag
  in
  Parcfl_cfl.Solver.explain s var obj

let set_oracle t o =
  t.oracle <- o;
  t.fragments <-
    (match o with
    | Some o -> Array.make (Oracle.distinct_rows o) ""
    | None -> [||])

(* Warm start: the O(1) answer tier over the engine's one PAG. It answers
   the CI relation; a context-sensitive engine never builds one. *)
let warm_start t =
  if not t.solver_config.Config.context_sensitive then
    set_oracle t (Some (Oracle.build ~generation:0 t.pag))

let oracle t = t.oracle

(* Cluster warm-up: replica 0 exports its compressed rows, joiners import
   them instead of re-running the kernel. A row is only valid for the
   exact PAG it was derived from, so import refuses a snapshot shaped for
   a different graph — a stale file must be an [Error], never an
   out-of-range row on the first query. *)
let export_oracle t =
  match oracle t with
  | None -> Error "engine holds no live oracle"
  | Some o -> Ok (Oracle.export o, Oracle.distinct_rows o)

let import_oracle t text =
  if t.solver_config.Config.context_sensitive then
    Error "context-sensitive engine cannot host the CI oracle"
  else
    Result.map
      (fun o ->
        set_oracle t (Some o);
        Oracle.distinct_rows o)
      (Oracle.import ~generation:0 t.pag text)

(* ------------------------- answer objects ------------------------- *)

let object_ranks t = function
  | Query.Out_of_budget -> [||]
  | Query.Points_to pairs ->
      let a = Array.of_list (List.map (fun (o, _) -> t.names.rank.(o)) pairs) in
      Array.sort Int.compare a;
      let k = ref 0 in
      Array.iter
        (fun r ->
          if !k = 0 || r <> a.(!k - 1) then begin
            a.(!k) <- r;
            incr k
          end)
        a;
      Array.sub a 0 !k

let objects_json t result =
  let ranks = object_ranks t result in
  let buf = Buffer.create (16 * (Array.length ranks + 1)) in
  Buffer.add_char buf '[';
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf t.names.token.(r))
    ranks;
  Buffer.add_char buf ']';
  Buffer.contents buf

let oracle_objects t v =
  let o =
    match t.oracle with
    | Some o -> o
    | None -> invalid_arg "Svc.Engine.oracle_objects: no live oracle"
  in
  let row = Oracle.row o v in
  if t.fragments.(row) = "" then
    t.fragments.(row) <- objects_json t (Oracle.outcome o v).Query.result;
  t.fragments.(row)

let jmp_count count t = match t.store with Some s -> count s | None -> 0
let jmp_edges = jmp_count Jmp_store.n_jumps
let jmp_hits = jmp_count Jmp_store.n_hits
let jmp_misses = jmp_count Jmp_store.n_misses
let jmp_finished = jmp_count Jmp_store.n_finished
let jmp_unfinished = jmp_count Jmp_store.n_unfinished

let steps_per_second t = t.rate

let deadline_budget t ~seconds_left =
  let cap = max_budget t in
  if seconds_left <= 0.0 then 1
  else
    match t.rate with
    | None -> cap
    | Some r ->
        let affordable = int_of_float (r *. seconds_left) in
        max 1 (min cap affordable)

let ewma_alpha = 0.3

let observe_rate t report =
  let wall = report.Report.r_wall_seconds in
  let steps = Report.total_walked report in
  if wall > 1e-6 && steps > 0 then begin
    let sample = float_of_int steps /. wall in
    t.rate <-
      Some
        (match t.rate with
        | None -> sample
        | Some r -> (ewma_alpha *. sample) +. ((1.0 -. ewma_alpha) *. r))
  end

let execute t ~budget queries =
  let solver_config =
    Config.with_budget (max 1 (min budget (max_budget t))) t.solver_config
  in
  let report =
    Runner.run ?tau_f:t.tau_f ?tau_u:t.tau_u ~sched_plan:t.plan
      ?store:t.store ~ctx_store:t.ctx_store ~type_level:t.type_level
      ~solver_config ?tracer:t.tracer ?pool:(worker_pool t) ~mode:t.mode
      ~threads:t.threads ~queries t.pag
  in
  observe_rate t report;
  report

type kind =
  | Query_start
  | Query_end
  | Jmp_hit
  | Early_term
  | Budget_exhausted

let kind_to_int = function
  | Query_start -> 0
  | Query_end -> 1
  | Jmp_hit -> 2
  | Early_term -> 3
  | Budget_exhausted -> 4

let kind_of_int = function
  | 0 -> Query_start
  | 1 -> Query_end
  | 2 -> Jmp_hit
  | 3 -> Early_term
  | _ -> Budget_exhausted

let kind_name = function
  | Query_start | Query_end -> "query"
  | Jmp_hit -> "jmp_hit"
  | Early_term -> "early_term"
  | Budget_exhausted -> "budget_exhausted"

(* Parallel arrays rather than an event record: emitting boxes nothing
   (floats unbox into the float array) and each ring is written by exactly
   one worker. *)
type ring = {
  kinds : int array;
  vars : int array;
  ts : float array;
  mutable count : int; (* total emitted, including overwritten *)
  mutable last_ts : float;
}

type t = {
  rings : ring array;
  capacity : int;
  t0_us : float;
      (* epoch origin, a whole number of microseconds: exported as an
         integer, so a merger reads back exactly the origin used here *)
  spans : (int * int * Span.t) array;
      (* (request id, variable, span); single writer: the service pump *)
  mutable span_count : int;  (* total noted, including overwritten *)
}

let default_capacity = 1 lsl 16

let create ?(capacity = default_capacity) ~workers () =
  if workers < 1 then invalid_arg "Tracer.create: workers must be >= 1";
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be >= 1";
  {
    rings =
      Array.init workers (fun _ ->
          {
            kinds = Array.make capacity 0;
            vars = Array.make capacity 0;
            ts = Array.make capacity 0.0;
            count = 0;
            last_ts = 0.0;
          });
    capacity;
    t0_us = Float.round (Unix.gettimeofday () *. 1e6);
    spans = Array.make capacity (0, 0, Span.create ~admit_us:0.0);
    span_count = 0;
  }

let note_request t ~id ~var span =
  t.spans.(t.span_count mod t.capacity) <- (id, var, span);
  t.span_count <- t.span_count + 1

let n_requests t = min t.span_count t.capacity
let n_dropped_requests t = max 0 (t.span_count - t.capacity)

let workers t = Array.length t.rings

let emit t ~worker kind ~var =
  if worker >= 0 && worker < Array.length t.rings then begin
    let r = t.rings.(worker) in
    let now = (Unix.gettimeofday () *. 1e6) -. t.t0_us in
    let now = if now > r.last_ts then now else r.last_ts in
    r.last_ts <- now;
    let i = r.count mod t.capacity in
    r.kinds.(i) <- kind_to_int kind;
    r.vars.(i) <- var;
    r.ts.(i) <- now;
    r.count <- r.count + 1
  end

let n_events t =
  Array.fold_left (fun acc r -> acc + min r.count t.capacity) 0 t.rings

let n_dropped t =
  Array.fold_left (fun acc r -> acc + max 0 (r.count - t.capacity)) 0 t.rings

let iter_ring t r f =
  let kept = min r.count t.capacity in
  let start = r.count - kept in
  for j = 0 to kept - 1 do
    let i = (start + j) mod t.capacity in
    f (kind_of_int r.kinds.(i)) r.vars.(i) r.ts.(i)
  done

let iter t f =
  Array.iteri
    (fun worker r -> iter_ring t r (fun kind var ts -> f ~worker kind ~var ~ts))
    t.rings

let event ?(pid = 0) ?(args = []) ~tid ~ph ~name ~ts ~var extra =
  Json.Obj
    ([
       ("name", Json.String name);
       ("cat", Json.String "parcfl");
       ("ph", Json.String ph);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
       ("ts", Json.Float ts);
       ("args", Json.Obj (("var", Json.Int var) :: args));
     ]
    @ extra)

let instant_scope = [ ("s", Json.String "t") ]

(* The service lane: pid 1, one tid ("lane") per set of non-overlapping
   requests. Lanes are assigned greedily in admit order — lowest lane whose
   previous request responded before this one was admitted — so concurrent
   requests render stacked instead of interleaved on one row. *)
let service_pid = 1

let process_name ~pid name =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let complete ?(pid = service_pid) ?args ~tid ~name ~ts ~dur ~var () =
  event ~pid ?args ~tid ~ph:"X" ~name ~ts ~var
    [ ("dur", Json.Float (Float.max 0.0 dur)) ]

let retained_spans t =
  let kept = n_requests t in
  let start = t.span_count - kept in
  List.init kept (fun j -> t.spans.((start + j) mod t.capacity))

(* Greedy lane packing: items sorted by start time, each takes the
   lowest lane whose previous occupant ended before it started, so
   concurrent items render stacked instead of interleaved on one row. *)
let assign_lanes ~start_of ~end_of items =
  let items =
    List.sort (fun a b -> compare (start_of a) (start_of b)) items
  in
  let lanes = ref [||] in
  List.map
    (fun it ->
      let n = Array.length !lanes in
      let rec find i =
        if i >= n then begin
          lanes := Array.append !lanes [| end_of it |];
          n
        end
        else if !lanes.(i) <= start_of it then begin
          !lanes.(i) <- end_of it;
          i
        end
        else find (i + 1)
      in
      (it, find 0))
    items

(* Each request renders on its lane as one "request" event spanning its
   breakdown's total, with the four stage slices laid end to end from the
   admit stamp: the lane shows exactly the durations the request's
   response reported. *)
let span_events t spans =
  let rel us = us -. t.t0_us in
  List.concat_map
    (fun ((id, var, admit, bd), tid) ->
      let _, stages =
        List.fold_left2
          (fun (ts, acc) name dur ->
            ( ts +. dur,
              if dur > 0.0 then complete ~tid ~name ~ts ~dur ~var () :: acc
              else acc ))
          (rel admit, []) Span.stage_names (Span.stage_values bd)
      in
      complete ~tid ~name:"request" ~ts:(rel admit) ~dur:(Span.total_us bd)
        ~var
        ~args:[ ("id", Json.Int id) ]
        ()
      :: List.rev stages)
    (assign_lanes
       ~start_of:(fun (_, _, admit, _) -> admit)
       ~end_of:(fun (_, _, admit, bd) -> admit +. Span.total_us bd)
       (List.map
          (fun (id, var, sp) ->
            (id, var, sp.Span.sp_admit_us, Span.breakdown sp))
          spans))

let to_json t =
  let evs = ref [] in
  Array.iteri
    (fun tid r ->
      (* Queries never nest within a worker, so after wrap-around the ring
         can only start mid-query: skipping to the first retained
         Query_start restores B/E pairing. *)
      let started = ref (r.count <= t.capacity) in
      iter_ring t r (fun kind var ts ->
          if (not !started) && kind = Query_start then started := true;
          if !started then
            let e =
              match kind with
              | Query_start -> event ~tid ~ph:"B" ~name:"query" ~ts ~var []
              | Query_end -> event ~tid ~ph:"E" ~name:"query" ~ts ~var []
              | (Jmp_hit | Early_term | Budget_exhausted) as k ->
                  event ~tid ~ph:"i" ~name:(kind_name k) ~ts ~var
                    instant_scope
            in
            evs := e :: !evs))
    t.rings;
  let worker_events = List.rev !evs in
  let service_events =
    if t.span_count = 0 then []
    else
      process_name ~pid:0 "solver workers"
      :: process_name ~pid:service_pid "service requests"
      :: span_events t (retained_spans t)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (worker_events @ service_events));
      ("displayTimeUnit", Json.String "ms");
      (* The trace's epoch origin in absolute microseconds: timestamps
         above are relative to it, so a merger ({!merge_cluster}) can put
         several processes' traces on one clock. *)
      ("t0_us", Json.Int (int_of_float t.t0_us));
      (* Truncation must be visible: a viewer reading a wrapped ring would
         otherwise mistake the retained window for the whole run. *)
      ("droppedEvents", Json.Int (n_dropped t));
      ("droppedRequestSpans", Json.Int (n_dropped_requests t));
    ]

let write_chrome ~path t = Json.write_file ~path (to_json t)

(* -------------------------- cluster merge -------------------------- *)

(* A query's five stamps at the router, in absolute epoch microseconds
   (the router serves several replicas, so there is no single tracer
   [t0] to be relative to). *)
type router_span = {
  rs_id : int;  (* the client's id — matches the replica lane *)
  rs_rid : int;  (* the rewritten wire correlation id *)
  rs_replica : int;
  rs_var : int;  (* resolved PAG variable, or -1 *)
  rs_accept_us : float;
  rs_route_us : float;
  rs_forward_us : float;
  rs_reply_us : float;
  rs_respond_us : float;
}

let router_pid = 0

let router_events ~t0 spans =
  List.concat_map
    (fun (s, tid) ->
      let rel us = us -. t0 in
      let var = s.rs_var in
      let stage name a b =
        if b -. a > 0.0 then
          [
            complete ~pid:router_pid ~tid ~name ~ts:(rel a) ~dur:(b -. a)
              ~var ();
          ]
        else []
      in
      complete ~pid:router_pid ~tid ~name:"request" ~ts:(rel s.rs_accept_us)
        ~dur:(s.rs_respond_us -. s.rs_accept_us)
        ~var
        ~args:
          [
            ("id", Json.Int s.rs_id);
            ("rid", Json.Int s.rs_rid);
            ("replica", Json.Int s.rs_replica);
          ]
        ()
      :: List.concat
           [
             stage "route" s.rs_accept_us s.rs_route_us;
             stage "forward" s.rs_route_us s.rs_forward_us;
             stage "replica" s.rs_forward_us s.rs_reply_us;
             stage "respond" s.rs_reply_us s.rs_respond_us;
           ])
    (assign_lanes
       ~start_of:(fun s -> s.rs_accept_us)
       ~end_of:(fun s -> s.rs_respond_us)
       spans)

(* A replica keeps its worker rows and service-request lanes, collapsed
   into one process: original pid 0 (workers) keeps its tids, original
   pid 1 (service lanes) is offset well past any worker count. *)
let replica_tid_offset = 64

let int_of_field j =
  match j with
  | Some (Json.Int i) -> Some i
  | Some (Json.Float f) -> Some (int_of_float f)
  | _ -> None

let float_of_field j =
  match j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let remap_replica_event ~shift ~pid ev =
  match ev with
  | Json.Obj fields -> (
      match Json.member "ph" ev with
      | Some (Json.String "M") ->
          (* Drop per-replica process metadata; the merger names each
             replica's process itself. *)
          None
      | _ ->
          let orig_pid =
            Option.value (int_of_field (Json.member "pid" ev)) ~default:0
          in
          let remap (k, v) =
            match (k, v) with
            | "pid", _ -> (k, Json.Int pid)
            | "tid", Json.Int tid when orig_pid = service_pid ->
                (k, Json.Int (tid + replica_tid_offset))
            | "ts", (Json.Float _ | Json.Int _) ->
                ( k,
                  Json.Float
                    (Option.get (float_of_field (Some v)) +. shift) )
            | _ -> (k, v)
          in
          Some (Json.Obj (List.map remap fields)))
  | _ -> None

(* One Chrome trace for the whole cluster: the router as pid 0, each
   replica's trace shifted onto the router's clock as pid [index + 1].
   Request ids need no rewriting — the router forwards its client's id in
   the query's [trace=] option, so replica request lanes already speak
   the client-visible id that the router lane records. A replica whose
   trace document is missing (it died mid-run) simply contributes
   nothing: the merge never fails on partial evidence. *)
let merge_cluster ~router_spans ~replicas =
  let t0 =
    let m = ref Float.infinity in
    List.iter
      (fun s -> if s.rs_accept_us < !m then m := s.rs_accept_us)
      router_spans;
    List.iter
      (fun (_, doc) ->
        match float_of_field (Json.member "t0_us" doc) with
        | Some f when f < !m -> m := f
        | _ -> ())
      replicas;
    if Float.is_finite !m then Float.floor !m else 0.0
  in
  let dropped_of key doc =
    Option.value (int_of_field (Json.member key doc)) ~default:0
  in
  let replica_events =
    List.concat_map
      (fun (idx, doc) ->
        let shift =
          match float_of_field (Json.member "t0_us" doc) with
          | Some f -> f -. t0
          | None -> 0.0
        in
        let pid = idx + 1 in
        let events =
          match Json.member "traceEvents" doc with
          | Some (Json.List evs) ->
              List.filter_map (remap_replica_event ~shift ~pid) evs
          | _ -> []
        in
        process_name ~pid (Printf.sprintf "replica %d" idx) :: events)
      replicas
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          ((process_name ~pid:router_pid "cluster router"
           :: router_events ~t0 router_spans)
          @ replica_events) );
      ("displayTimeUnit", Json.String "ms");
      ("t0_us", Json.Int (int_of_float t0));
      ( "droppedEvents",
        Json.Int
          (List.fold_left
             (fun acc (_, doc) -> acc + dropped_of "droppedEvents" doc)
             0 replicas) );
      ( "droppedRequestSpans",
        Json.Int
          (List.fold_left
             (fun acc (_, doc) ->
               acc + dropped_of "droppedRequestSpans" doc)
             0 replicas) );
    ]

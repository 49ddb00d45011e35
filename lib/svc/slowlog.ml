module Json = Parcfl_obs.Json
module Span = Parcfl_obs.Span

type entry = {
  sl_id : int;
  sl_var : string;
  sl_budget : int;
  sl_steps : int;
  sl_latency_us : float;
  sl_breakdown : Span.breakdown;
  sl_outcome : string;
  sl_cached : bool;
  sl_trace : int option;
  sl_at : float;
}

type t = {
  cap : int;
  lock : Mutex.t;
  mutable entries : entry list;  (* unordered; bounded by [cap] *)
}

let create ~capacity =
  if capacity <= 0 then
    invalid_arg "Svc.Slowlog.create: capacity must be > 0";
  { cap = capacity; lock = Mutex.create (); entries = [] }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let size t = locked t (fun () -> List.length t.entries)

(* Slowest first; among equal latencies the more recent entry sorts first
   so a fresh regression is visible even when it ties an old one. *)
let order a b =
  let c = compare b.sl_latency_us a.sl_latency_us in
  if c <> 0 then c else compare b.sl_at a.sl_at

let note t e =
  locked t (fun () ->
      if List.length t.entries < t.cap then t.entries <- e :: t.entries
      else begin
        (* Full: replace the fastest resident iff the newcomer is slower. *)
        let fastest =
          List.fold_left
            (fun acc x -> if order x acc >= 0 then x else acc)
            (List.hd t.entries) t.entries
        in
        if order e fastest < 0 then
          t.entries <-
            e :: List.filter (fun x -> x != fastest) t.entries
      end)

let worst ?limit t =
  let sorted = locked t (fun () -> List.sort order t.entries) in
  match limit with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

let entry_to_json e =
  Json.Obj
    ([
       ("id", Json.Int e.sl_id);
       ("var", Json.String e.sl_var);
       ("budget", Json.Int e.sl_budget);
       ("steps", Json.Int e.sl_steps);
       ("latency_us", Json.Float e.sl_latency_us);
     ]
    @ Span.breakdown_fields e.sl_breakdown
    @ [
        ("outcome", Json.String e.sl_outcome);
        ("cached", Json.Bool e.sl_cached);
      ]
    @ (match e.sl_trace with
      | Some tid -> [ ("trace", Json.Int tid) ]
      | None -> [])
    @ [ ("at", Json.Float e.sl_at) ])

let to_json ?limit t = Json.List (List.map entry_to_json (worst ?limit t))

let clear t = locked t (fun () -> t.entries <- [])

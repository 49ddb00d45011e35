(* Merging per-replica observability payloads into one cluster-wide
   answer. The router scatters one client `metrics`/`stats`/`slowlog` to
   every live replica and gathers the replies here; the merge rules are
   the federation contract documented in router.mli:

   - counters and histogram buckets are {e summed} — they count events,
     and the cluster's event count is the sum over replicas;
   - gauges are {e relabelled}, not summed — an instantaneous queue
     depth per replica is meaningful, their sum usually is not, so each
     sample gains a [replica="N"] label and all of them survive;
   - slowlog entries compete by worst latency across the whole cluster.

   A federated `stats` is no separate merge: the router views the merged
   counters (Router.federated_stats). *)

module Expo = Parcfl_telemetry.Expo
module Json = Parcfl_obs.Json

(* ----------------------------- metrics ----------------------------- *)

let relabel_gauge ~replica = function
  | Expo.Gauge { name; help; samples } ->
      let tag s =
        {
          s with
          Expo.labels =
            s.Expo.labels @ [ ("replica", string_of_int replica) ];
        }
      in
      Expo.Gauge { name; help; samples = List.map tag samples }
  | f -> f

let add_counter_samples acc extra =
  List.fold_left
    (fun acc { Expo.labels; value } ->
      let rec add = function
        | [] -> [ { Expo.labels; value } ]
        | s :: rest when s.Expo.labels = labels ->
            { s with Expo.value = s.Expo.value +. value } :: rest
        | s :: rest -> s :: add rest
      in
      add acc)
    acc extra

(* Cumulative bucket lists sum pointwise when the bound lists coincide
   (the common case: every replica runs the same code, so log2 arrays
   have equal shapes once equally sized). Unequal lists — one replica
   saw larger values and grew more buckets — merge over the union of
   bounds, each side contributing its cumulative count at the greatest
   bound <= le; the [+Inf] bucket is always present so totals stay
   exact. *)
let merge_buckets a b =
  if List.map fst a = List.map fst b then
    List.map2 (fun (le, ca) (_, cb) -> (le, ca + cb)) a b
  else begin
    let bounds =
      List.sort_uniq compare (List.map fst a @ List.map fst b)
    in
    let at side le =
      List.fold_left
        (fun acc (bound, c) -> if bound <= le then c else acc)
        0 side
    in
    List.map (fun le -> (le, at a le + at b le)) bounds
  end

let merge_hist a b =
  {
    a with
    Expo.h_buckets = merge_buckets a.Expo.h_buckets b.Expo.h_buckets;
    h_count = a.Expo.h_count + b.Expo.h_count;
    h_sum =
      (match (a.Expo.h_sum, b.Expo.h_sum) with
      | Some x, Some y -> Some (x +. y)
      | _ -> None);
  }

let add_series acc extra =
  List.fold_left
    (fun acc h ->
      let rec add = function
        | [] -> [ h ]
        | g :: rest when g.Expo.h_labels = h.Expo.h_labels ->
            merge_hist g h :: rest
        | g :: rest -> g :: add rest
      in
      add acc)
    acc extra

let kind_name = function
  | Expo.Counter _ -> "counter"
  | Expo.Gauge _ -> "gauge"
  | Expo.Histogram _ -> "histogram"

let combine a b =
  match (a, b) with
  | ( Expo.Counter { name; help; samples },
      Expo.Counter { samples = extra; _ } ) ->
      Ok (Expo.Counter { name; help; samples = add_counter_samples samples extra })
  | Expo.Gauge { name; help; samples }, Expo.Gauge { samples = extra; _ }
    ->
      (* Replica labels already distinguish the samples; keep them all. *)
      Ok (Expo.Gauge { name; help; samples = samples @ extra })
  | ( Expo.Histogram { name; help; series },
      Expo.Histogram { series = extra; _ } ) ->
      Ok (Expo.Histogram { name; help; series = add_series series extra })
  | a, b ->
      Error
        (Printf.sprintf "family %s: %s on one replica, %s on another"
           (Expo.family_name a) (kind_name a) (kind_name b))

let merge_families parts =
  let tbl : (string, Expo.family) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let rec go = function
    | [] -> Ok (List.rev_map (fun n -> Hashtbl.find tbl n) !order)
    | (replica, fams) :: rest ->
        let rec feed = function
          | [] -> go rest
          | f :: fs -> (
              let f = relabel_gauge ~replica f in
              let name = Expo.family_name f in
              match Hashtbl.find_opt tbl name with
              | None ->
                  Hashtbl.replace tbl name f;
                  order := name :: !order;
                  feed fs
              | Some g -> (
                  match combine g f with
                  | Ok m ->
                      Hashtbl.replace tbl name m;
                      feed fs
                  | Error _ as e -> e))
        in
        feed fams
  in
  go parts

let parse_scrapes parts =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | (r, body) :: rest -> (
        match Expo.parse_families body with
        | Ok fams -> parse ((r, fams) :: acc) rest
        | Error e -> Error (Printf.sprintf "replica %d: %s" r e))
  in
  parse [] parts

let merge_metrics ?(extra = []) parts =
  Result.bind (parse_scrapes parts) (fun parts ->
      Result.map
        (fun fams -> Expo.render (extra @ fams))
        (merge_families parts))

(* ------------------------------ health ----------------------------- *)

let merge_health ?(drained = []) parts =
  let healthy = parts <> [] && List.for_all (fun (_, ok, _) -> ok) parts in
  let reasons =
    List.concat_map
      (fun (r, _, reasons) ->
        List.map (fun s -> Printf.sprintf "replica=\"%d\": %s" r s) reasons)
      parts
  in
  (healthy, drained @ reasons)

(* ----------------------------- slowlog ----------------------------- *)

let num_field k = function
  | Json.Obj fields -> (
      match List.assoc_opt k fields with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> neg_infinity)
  | _ -> neg_infinity

let merge_slowlogs ?limit parts =
  let tag r = function
    | Json.Obj fields -> Json.Obj (fields @ [ ("replica", Json.Int r) ])
    | j -> j
  in
  let entries =
    List.concat_map
      (fun (r, j) ->
        match j with
        | Json.List l -> List.map (tag r) l
        | _ -> [])
      parts
  in
  (* The per-replica logs already order slowest-first with newest
     breaking ties; the cluster-wide log keeps the same contract. *)
  let entries =
    List.stable_sort
      (fun a b ->
        match
          compare (num_field "latency_us" b) (num_field "latency_us" a)
        with
        | 0 -> compare (num_field "at" b) (num_field "at" a)
        | c -> c)
      entries
  in
  let entries =
    match limit with
    | None -> entries
    | Some n ->
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        take n entries
  in
  Json.List entries

(* Sample statistics and outcome accounting for the benchmark. *)

(* Samples a tail quantile must leave beyond itself before it is reported:
   fewer, and the "percentile" is one or two lucky samples. *)
let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile: the k-th smallest sample, k = ceil(q * n). It is
   reported only when at least [min_beyond] samples lie beyond it. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || q <= 0.0 || q >= 1.0 then None
  else
    let k = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    if n - k < min_beyond then None else Some a.(k - 1)

(* p99, or the highest of p95 and p90 that the sample count supports. *)
let tail xs = List.find_map (quantile xs) [ 0.99; 0.95; 0.9 ]

(* Plain median (mean of the middle pair), for the few repeated set-up and
   capacity samples that are summarised without a tail rule. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else if n mod 2 = 1 then Some a.(n / 2)
  else Some ((a.((n / 2) - 1) +. a.(n / 2)) /. 2.0)

let mean xs =
  match xs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))

(* One request's fate. Budget exhaustion is an outcome, not a failure: the
   reference decides whether it was the right one. *)
type fate =
  | Resolved  (** full answer, equal to the reference *)
  | Exhausted  (** budget-exhausted reply where the reference is too *)
  | Done  (** a correct non-query reply (explain) *)
  | Wrong of string  (** a reply the reference contradicts *)
  | Error_reply of string  (** error status from the server *)
  | Rejected  (** refused by admission control *)
  | Dead  (** its connection died before the reply *)
  | Unanswered  (** no reply before the run's drain deadline *)

let is_failure = function
  | Resolved | Exhausted | Done -> false
  | Wrong _ | Error_reply _ | Rejected | Dead | Unanswered -> true

type tally = {
  mutable sent : int;
  mutable failed : int;
  mutable query_replies : int;  (** Resolved + Exhausted *)
  mutable resolved : int;
  mutable within_slo : int;  (** correct and no later than the limit *)
  mutable first_failure : string option;
}

let tally () =
  {
    sent = 0;
    failed = 0;
    query_replies = 0;
    resolved = 0;
    within_slo = 0;
    first_failure = None;
  }

let describe = function
  | Resolved -> "resolved"
  | Exhausted -> "exhausted"
  | Done -> "done"
  | Wrong m -> "wrong answer: " ^ m
  | Error_reply m -> "error reply: " ^ m
  | Rejected -> "rejected"
  | Dead -> "dead connection"
  | Unanswered -> "unanswered"

(* [latency_us] is [None] when there was no reply; a failed request always
   misses the latency limit. *)
let record t ?latency_us ~slo_us fate =
  t.sent <- t.sent + 1;
  (match fate with
  | Resolved ->
      t.query_replies <- t.query_replies + 1;
      t.resolved <- t.resolved + 1
  | Exhausted -> t.query_replies <- t.query_replies + 1
  | _ -> ());
  if is_failure fate then begin
    t.failed <- t.failed + 1;
    if t.first_failure = None then t.first_failure <- Some (describe fate)
  end
  else
    match latency_us with
    | Some l when l <= slo_us -> t.within_slo <- t.within_slo + 1
    | _ -> ()

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let failed_frac t = frac t.failed t.sent
let ok_frac t = frac (t.sent - t.failed) t.sent
let slo_frac t = frac t.within_slo t.sent
let resolved_frac t = frac t.resolved t.query_replies

let merge a b =
  {
    sent = a.sent + b.sent;
    failed = a.failed + b.failed;
    query_replies = a.query_replies + b.query_replies;
    resolved = a.resolved + b.resolved;
    within_slo = a.within_slo + b.within_slo;
    first_failure = (match a.first_failure with Some _ -> a.first_failure | None -> b.first_failure);
  }

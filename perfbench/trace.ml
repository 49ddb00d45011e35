(* Bench-side spans around each call into a layer, kept in memory and
   written as a Chrome trace (trace_event "X" slices) when the run ends.
   Disabled, [span] only runs its body. *)

type span = {
  sp_id : int;
  name : string;
  start_us : float;
  end_us : float;
  parent : int;  (** [-1] at the root *)
  rid : int;  (** request id, [-1] outside a request *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let now_us () = Unix.gettimeofday () *. 1e6

let add ?(parent = -1) ?(rid = -1) name ~start_us ~end_us =
  if !enabled then begin
    let sp_id = !next_id in
    incr next_id;
    let parent = if parent >= 0 then parent else match !stack with p :: _ -> p | [] -> -1 in
    spans := { sp_id; name; start_us; end_us; parent; rid } :: !spans;
    sp_id
  end
  else -1

(* Times [f] as a span nested under the innermost open one. *)
let span ?rid name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_us = now_us () in
    let finish () =
      let end_us = now_us () in
      stack := List.tl !stack;
      spans :=
        { sp_id = id; name; start_us; end_us; parent; rid = Option.value rid ~default:(-1) }
        :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let count () = List.length !spans

(* Total duration of the spans called [name]. *)
let total_us name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.end_us -. s.start_us) else acc)
    0.0 !spans

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%d}}"
        s.name
        (if s.rid >= 0 then 2 else 1)
        s.start_us
        (Float.max 0.0 (s.end_us -. s.start_us))
        s.sp_id s.parent s.rid)
    (List.rev !spans);
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc

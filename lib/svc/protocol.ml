module Json = Parcfl_obs.Json
module Span = Parcfl_obs.Span

type request =
  | Query of {
      id : int;
      var : string;
      budget : int option;
      deadline_ms : float option;
      trace : int option;
          (* the caller's own id for this query, when it differs from
             [id] — the cluster router rewrites [id] for correlation and
             carries the client-visible id here so both sides' trace
             lanes speak one request id *)
    }
  | Explain of { id : int; var : string; obj : string }
  | Stats of int
  | Metrics of int
  | Slowlog of { id : int; limit : int option }
  | Health of int
  | Drain of int
  | Ping of int
  | Quit

let max_request_line = 65536

let split_ws line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let int_of_token what tok =
  match int_of_string_opt tok with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what tok)

let parse_option acc tok =
  match (acc, String.index_opt tok '=') with
  | Error _, _ -> acc
  | Ok _, None -> Error (Printf.sprintf "malformed option %S (want k=v)" tok)
  | Ok (budget, deadline, trace), Some i -> (
      let k = String.sub tok 0 i in
      let v = String.sub tok (i + 1) (String.length tok - i - 1) in
      match k with
      | "budget" -> (
          match int_of_string_opt v with
          | Some b when b > 0 -> Ok (Some b, deadline, trace)
          | _ -> Error (Printf.sprintf "budget: want a positive integer, got %S" v))
      | "deadline_ms" -> (
          match float_of_string_opt v with
          | Some d when d >= 0.0 -> Ok (budget, Some d, trace)
          | _ -> Error (Printf.sprintf "deadline_ms: want a non-negative float, got %S" v))
      | "trace" -> (
          match int_of_string_opt v with
          | Some t -> Ok (budget, deadline, Some t)
          | _ -> Error (Printf.sprintf "trace: want an integer, got %S" v))
      | _ -> Error (Printf.sprintf "unknown option %S" k))

let parse_request line =
  match split_ws line with
  | [ "quit" ] -> Ok Quit
  | [ "ping"; id ] -> Result.map (fun id -> Ping id) (int_of_token "ping id" id)
  | [ "stats"; id ] ->
      Result.map (fun id -> Stats id) (int_of_token "stats id" id)
  | [ "metrics"; id ] ->
      Result.map (fun id -> Metrics id) (int_of_token "metrics id" id)
  | [ "health"; id ] ->
      Result.map (fun id -> Health id) (int_of_token "health id" id)
  | [ "drain"; id ] ->
      Result.map (fun id -> Drain id) (int_of_token "drain id" id)
  | [ "slowlog"; id ] ->
      Result.map
        (fun id -> Slowlog { id; limit = None })
        (int_of_token "slowlog id" id)
  | [ "slowlog"; id; n ] ->
      Result.bind (int_of_token "slowlog id" id) (fun id ->
          Result.bind (int_of_token "slowlog limit" n) (fun n ->
              if n < 0 then Error "slowlog limit: want a non-negative integer"
              else Ok (Slowlog { id; limit = Some n })))
  | "query" :: id :: var :: opts ->
      Result.bind (int_of_token "query id" id) (fun id ->
          Result.map
            (fun (budget, deadline_ms, trace) ->
              Query { id; var; budget; deadline_ms; trace })
            (List.fold_left parse_option (Ok (None, None, None)) opts))
  | [ "explain"; id; var; obj ] ->
      Result.map
        (fun id -> Explain { id; var; obj })
        (int_of_token "explain id" id)
  | [] -> Error "empty request"
  | verb :: _ ->
      Error
        (Printf.sprintf
           "unknown request %S \
            (want \
            query|explain|stats|metrics|slowlog|health|drain|ping|quit)"
           verb)

(* Millisecond precision when it is exact, the shortest round-tripping
   spelling otherwise: a proxy that re-serialises a parsed request must
   not move its deadline. *)
let float_token d =
  let short = Printf.sprintf "%.3f" d in
  if float_of_string short = d then short else Printf.sprintf "%.17g" d

let request_to_string = function
  | Quit -> "quit"
  | Ping id -> Printf.sprintf "ping %d" id
  | Stats id -> Printf.sprintf "stats %d" id
  | Metrics id -> Printf.sprintf "metrics %d" id
  | Health id -> Printf.sprintf "health %d" id
  | Drain id -> Printf.sprintf "drain %d" id
  | Slowlog { id; limit = None } -> Printf.sprintf "slowlog %d" id
  | Slowlog { id; limit = Some n } -> Printf.sprintf "slowlog %d %d" id n
  | Query { id; var; budget; deadline_ms; trace } ->
      String.concat ""
        [
          Printf.sprintf "query %d %s" id var;
          (match budget with
          | Some b -> Printf.sprintf " budget=%d" b
          | None -> "");
          (match deadline_ms with
          | Some d -> " deadline_ms=" ^ float_token d
          | None -> "");
          (match trace with
          | Some t -> Printf.sprintf " trace=%d" t
          | None -> "");
        ]
  | Explain { id; var; obj } -> Printf.sprintf "explain %d %s %s" id var obj

type timeout_reason = [ `Budget | `Deadline ]

type response =
  | Answer of {
      id : int;
      var : string;
      objects : string list;
      cached : bool;
      steps : int;
      latency_us : float;
      breakdown : Span.breakdown;
    }
  | Timeout of {
      id : int;
      reason : timeout_reason;
      cached : bool;
      latency_us : float;
      breakdown : Span.breakdown;
    }
  | Rejected of { id : int; reason : string }
  | Error of { id : int option; reason : string }
  | Pong of int
  | Stats_reply of { id : int; stats : Json.t }
  | Metrics_reply of { id : int; body : string }
  | Slowlog_reply of { id : int; entries : Json.t }
  | Explain_reply of {
      id : int;
      var : string;
      obj : string;
      found : bool;
      depth : int;
      latency_us : float;
      chain : Json.t;
    }
  | Health_reply of { id : int; healthy : bool; reasons : string list }
  | Drained of { id : int; completed : int }

let reason_string = function `Budget -> "budget" | `Deadline -> "deadline"

(* ------------------------------ writing ------------------------------ *)

(* Replies are written straight into a buffer. Answers and timeouts, the
   hot replies, never build a [Json.t]; the rest write one through
   [Json.write]. Every field is spelled as [Json.to_string] would. *)

let add_float buf f = Buffer.add_string buf (Json.float_token f)

let write_head buf id status =
  Buffer.add_string buf "{\"id\":";
  Buffer.add_string buf (string_of_int id);
  Buffer.add_string buf ",\"status\":\"";
  Buffer.add_string buf status;
  Buffer.add_char buf '"'

let write_tail buf ~latency_us ~(breakdown : Span.breakdown) =
  Buffer.add_string buf ",\"latency_us\":";
  add_float buf latency_us;
  Buffer.add_string buf ",\"queue_wait_us\":";
  add_float buf breakdown.bd_queue_wait_us;
  Buffer.add_string buf ",\"batch_wait_us\":";
  add_float buf breakdown.bd_batch_wait_us;
  Buffer.add_string buf ",\"solve_us\":";
  add_float buf breakdown.bd_solve_us;
  Buffer.add_string buf ",\"respond_us\":";
  add_float buf breakdown.bd_respond_us;
  Buffer.add_char buf '}'

let add_cached buf cached =
  Buffer.add_string buf
    (if cached then ",\"cached\":true" else ",\"cached\":false")

(* An answer is written in three parts around its objects array, so a
   caller holding the array already rendered can blit it. *)
let write_answer_head buf ~id ~var =
  write_head buf id "ok";
  Buffer.add_string buf ",\"var\":";
  Json.escape_into buf var;
  Buffer.add_string buf ",\"objects\":"

let write_answer_tail buf ~cached ~steps ~latency_us ~breakdown =
  add_cached buf cached;
  Buffer.add_string buf ",\"steps\":";
  Buffer.add_string buf (string_of_int steps);
  write_tail buf ~latency_us ~breakdown

let write_names buf names =
  Buffer.add_char buf '[';
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char buf ',';
      Json.escape_into buf n)
    names;
  Buffer.add_char buf ']'

let write_response buf r =
  let obj id status fields =
    Json.write buf
      (Json.Obj
         (("id", Json.Int id) :: ("status", Json.String status) :: fields))
  in
  match r with
  | Answer { id; var; objects; cached; steps; latency_us; breakdown } ->
      write_answer_head buf ~id ~var;
      write_names buf objects;
      write_answer_tail buf ~cached ~steps ~latency_us ~breakdown
  | Timeout { id; reason; cached; latency_us; breakdown } ->
      write_head buf id "timeout";
      Buffer.add_string buf ",\"reason\":\"";
      Buffer.add_string buf (reason_string reason);
      Buffer.add_char buf '"';
      add_cached buf cached;
      write_tail buf ~latency_us ~breakdown
  | Rejected { id; reason } -> obj id "rejected" [ ("reason", Json.String reason) ]
  | Error { id; reason } ->
      Json.write buf
        (Json.Obj
           [
             ("id", match id with Some id -> Json.Int id | None -> Json.Null);
             ("status", Json.String "error");
             ("reason", Json.String reason);
           ])
  | Pong id -> obj id "pong" []
  | Stats_reply { id; stats } -> obj id "stats" [ ("stats", stats) ]
  | Metrics_reply { id; body } ->
      (* The multi-line exposition rides inside a JSON string, keeping the
         one-line-per-response transport invariant. *)
      obj id "metrics" [ ("body", Json.String body) ]
  | Slowlog_reply { id; entries } -> obj id "slowlog" [ ("entries", entries) ]
  | Explain_reply { id; var; obj = o; found; depth; latency_us; chain } ->
      obj id "explain"
        [
          ("var", Json.String var);
          ("obj", Json.String o);
          ("found", Json.Bool found);
          ("depth", Json.Int depth);
          ("latency_us", Json.Float latency_us);
          ("chain", chain);
        ]
  | Health_reply { id; healthy; reasons } ->
      obj id "health"
        [
          ("health", Json.String (if healthy then "ok" else "degraded"));
          ("reasons", Json.List (List.map (fun r -> Json.String r) reasons));
        ]
  | Drained { id; completed } ->
      obj id "drained" [ ("completed", Json.Int completed) ]

let render write =
  let buf = Buffer.create 256 in
  write buf;
  Buffer.contents buf

let response_to_string r = render (fun buf -> write_response buf r)

let response_line r =
  render (fun buf ->
      write_response buf r;
      Buffer.add_char buf '\n')

(* One allocation of the line's exact size: the array is blitted once. *)
let answer_line ~id ~var ~objects ~cached ~steps ~latency_us ~breakdown =
  String.concat ""
    [
      render (write_answer_head ~id ~var);
      objects;
      render (fun buf ->
          write_answer_tail buf ~cached ~steps ~latency_us ~breakdown;
          Buffer.add_char buf '\n');
    ]

let member_int name j =
  match Json.member name j with Some (Json.Int n) -> Some n | _ -> None

let member_string name j =
  match Json.member name j with Some (Json.String s) -> Some s | _ -> None

let member_bool name j =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let member_float name j =
  match Json.member name j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int n) -> Some (float_of_int n)
  | _ -> None

let require what = function
  | Some v -> Ok v
  | None -> Stdlib.Error (Printf.sprintf "response missing %s" what)

let ( let* ) = Result.bind

let breakdown_of_json j =
  let* q = require "queue_wait_us" (member_float "queue_wait_us" j) in
  let* b = require "batch_wait_us" (member_float "batch_wait_us" j) in
  let* s = require "solve_us" (member_float "solve_us" j) in
  let* r = require "respond_us" (member_float "respond_us" j) in
  Ok
    {
      Span.bd_queue_wait_us = q;
      bd_batch_wait_us = b;
      bd_solve_us = s;
      bd_respond_us = r;
    }

let response_of_json j =
  let* status = require "status" (member_string "status" j) in
  match status with
  | "ok" ->
      let* id = require "id" (member_int "id" j) in
      let* var = require "var" (member_string "var" j) in
      let* objects =
        match Json.member "objects" j with
        | Some (Json.List l) ->
            List.fold_left
              (fun acc o ->
                let* acc = acc in
                match o with
                | Json.String s -> Ok (s :: acc)
                | _ -> Stdlib.Error "objects: expected strings")
              (Ok []) l
            |> Result.map List.rev
        | _ -> Stdlib.Error "response missing objects"
      in
      let* cached = require "cached" (member_bool "cached" j) in
      let* steps = require "steps" (member_int "steps" j) in
      let* latency_us = require "latency_us" (member_float "latency_us" j) in
      let* breakdown = breakdown_of_json j in
      Ok (Answer { id; var; objects; cached; steps; latency_us; breakdown })
  | "timeout" ->
      let* id = require "id" (member_int "id" j) in
      let* reason = require "reason" (member_string "reason" j) in
      let* reason =
        match reason with
        | "budget" -> Ok `Budget
        | "deadline" -> Ok `Deadline
        | r -> Stdlib.Error (Printf.sprintf "unknown timeout reason %S" r)
      in
      let cached = Option.value ~default:false (member_bool "cached" j) in
      let* latency_us = require "latency_us" (member_float "latency_us" j) in
      let* breakdown = breakdown_of_json j in
      Ok (Timeout { id; reason; cached; latency_us; breakdown })
  | "rejected" ->
      let* id = require "id" (member_int "id" j) in
      let* reason = require "reason" (member_string "reason" j) in
      Ok (Rejected { id; reason })
  | "error" ->
      let* reason = require "reason" (member_string "reason" j) in
      Ok (Error { id = member_int "id" j; reason })
  | "pong" ->
      let* id = require "id" (member_int "id" j) in
      Ok (Pong id)
  | "stats" ->
      let* id = require "id" (member_int "id" j) in
      let* stats = require "stats" (Json.member "stats" j) in
      Ok (Stats_reply { id; stats })
  | "metrics" ->
      let* id = require "id" (member_int "id" j) in
      let* body = require "body" (member_string "body" j) in
      Ok (Metrics_reply { id; body })
  | "slowlog" ->
      let* id = require "id" (member_int "id" j) in
      let* entries = require "entries" (Json.member "entries" j) in
      Ok (Slowlog_reply { id; entries })
  | "explain" ->
      let* id = require "id" (member_int "id" j) in
      let* var = require "var" (member_string "var" j) in
      let* obj = require "obj" (member_string "obj" j) in
      let* found = require "found" (member_bool "found" j) in
      let* depth = require "depth" (member_int "depth" j) in
      let* latency_us = require "latency_us" (member_float "latency_us" j) in
      let* chain = require "chain" (Json.member "chain" j) in
      Ok (Explain_reply { id; var; obj; found; depth; latency_us; chain })
  | "health" ->
      let* id = require "id" (member_int "id" j) in
      let* state = require "health" (member_string "health" j) in
      let* healthy =
        match state with
        | "ok" -> Ok true
        | "degraded" -> Ok false
        | s -> Stdlib.Error (Printf.sprintf "unknown health state %S" s)
      in
      let* reasons =
        match Json.member "reasons" j with
        | Some (Json.List l) ->
            List.fold_left
              (fun acc r ->
                let* acc = acc in
                match r with
                | Json.String s -> Ok (s :: acc)
                | _ -> Stdlib.Error "reasons: expected strings")
              (Ok []) l
            |> Result.map List.rev
        | _ -> Stdlib.Error "response missing reasons"
      in
      Ok (Health_reply { id; healthy; reasons })
  | "drained" ->
      let* id = require "id" (member_int "id" j) in
      let* completed = require "completed" (member_int "completed" j) in
      Ok (Drained { id; completed })
  | s -> Stdlib.Error (Printf.sprintf "unknown response status %S" s)

let response_of_string s = Result.bind (Json.of_string s) response_of_json

let request_id = function
  | Query { id; _ }
  | Explain { id; _ }
  | Stats id
  | Metrics id
  | Slowlog { id; _ }
  | Health id
  | Drain id
  | Ping id ->
      Some id
  | Quit -> None

let response_id = function
  | Answer { id; _ }
  | Timeout { id; _ }
  | Rejected { id; _ }
  | Pong id
  | Stats_reply { id; _ }
  | Metrics_reply { id; _ }
  | Slowlog_reply { id; _ }
  | Explain_reply { id; _ }
  | Health_reply { id; _ }
  | Drained { id; _ } ->
      Some id
  | Error { id; _ } -> id

(* ------------------------- reading by prefix ------------------------- *)

let id_key = "{\"id\":"
let null_prefix = "{\"id\":null,"

(* Index of the comma that ends a [{"id":N,] prefix, or -1. At most a
   sign and 20 digits are looked at: no int has more. *)
let id_end line =
  let n = String.length line and k = String.length id_key in
  if not (String.starts_with ~prefix:id_key line) then -1
  else
    let first = if k < n && line.[k] = '-' then k + 1 else k in
    let i = ref first in
    while !i < n && !i - first <= 20 && line.[!i] >= '0' && line.[!i] <= '9' do
      incr i
    done;
    if !i = first || !i >= n || line.[!i] <> ',' then -1 else !i

let reply_id line =
  match id_end line with
  | -1 -> None
  | stop ->
      let k = String.length id_key in
      int_of_string_opt (String.sub line k (stop - k))

let splice line ~id =
  let stop =
    if String.starts_with ~prefix:null_prefix line then
      String.length null_prefix - 1
    else if reply_id line = None then -1
    else id_end line
  in
  if stop < 0 then None
  else begin
    let k = String.length id_key and ids = string_of_int id in
    let rest = String.length line - stop in
    let b = Bytes.create (k + String.length ids + rest + 1) in
    Bytes.blit_string id_key 0 b 0 k;
    Bytes.blit_string ids 0 b k (String.length ids);
    Bytes.blit_string line stop b (k + String.length ids) rest;
    Bytes.set b (Bytes.length b - 1) '\n';
    Some (Bytes.unsafe_to_string b)
  end

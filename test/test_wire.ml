(* Wire rendering (lib/svc/protocol.ml): the direct reply writer, the
   id-prefix scanner and the splice a proxy forwards replies with. Each is
   checked against a reference built the slow way — a [Json.t] tree
   printed by [Json.to_string], names ordered by [List.sort_uniq compare],
   and parse -> rewrite the id -> print. *)

module P = Parcfl
module Proto = P.Svc_protocol
module Json = P.Json

(* ----------------------------- reference ----------------------------- *)

let breakdown_fields (bd : P.Svc_span.breakdown) =
  [
    ("queue_wait_us", Json.Float bd.bd_queue_wait_us);
    ("batch_wait_us", Json.Float bd.bd_batch_wait_us);
    ("solve_us", Json.Float bd.bd_solve_us);
    ("respond_us", Json.Float bd.bd_respond_us);
  ]

(* The two replies the writer renders without a [Json.t]. *)
let reference = function
  | Proto.Answer { id; var; objects; cached; steps; latency_us; breakdown } ->
      Json.Obj
        ([
           ("id", Json.Int id);
           ("status", Json.String "ok");
           ("var", Json.String var);
           ("objects", Json.List (List.map (fun o -> Json.String o) objects));
           ("cached", Json.Bool cached);
           ("steps", Json.Int steps);
           ("latency_us", Json.Float latency_us);
         ]
        @ breakdown_fields breakdown)
  | Proto.Timeout { id; reason; cached; latency_us; breakdown } ->
      Json.Obj
        ([
           ("id", Json.Int id);
           ("status", Json.String "timeout");
           ( "reason",
             Json.String
               (match reason with `Budget -> "budget" | `Deadline -> "deadline")
           );
           ("cached", Json.Bool cached);
           ("latency_us", Json.Float latency_us);
         ]
        @ breakdown_fields breakdown)
  | r -> Alcotest.failf "no reference for %s" (Proto.response_to_string r)

(* A service's wire line, parsed back. Its bytes must be the reference
   rendering of what it says, and the value writer's: the line writer
   and [Protocol.response_to_string] cannot drift apart. *)
let check_line what line =
  let n = String.length line in
  if n = 0 || line.[n - 1] <> '\n' then
    Alcotest.failf "%s: %S is not newline-terminated" what line;
  let body = String.sub line 0 (n - 1) in
  match Proto.response_of_string body with
  | Error e -> Alcotest.failf "%s: %S does not parse: %s" what body e
  | Ok r ->
      let want = Json.to_string (reference r) in
      if body <> want then
        Alcotest.failf "%s: writer %S, reference %S" what body want;
      if Proto.response_to_string r <> body then
        Alcotest.failf "%s: the value writer differs on %S" what body;
      r

let names pag result =
  P.Query.objects result |> List.map (P.Pag.obj_name pag)
  |> List.sort_uniq compare

let query ?budget id v =
  Proto.Query
    { id; var = Printf.sprintf "#%d" v; budget; deadline_ms = None; trace = None }

let one_line svc req =
  let got = ref [] in
  P.Service.submit_line svc ~now:0.0 ~send:(fun l -> got := l :: !got) req;
  ignore (P.Service.pump svc ~now:0.0);
  match !got with
  | [ l ] -> l
  | ls -> Alcotest.failf "%d replies to one request" (List.length ls)

(* --------------------------- differential ---------------------------- *)

(* Every application query's oracle answer, on every profile: it must
   say exactly the sorted, deduplicated names of the oracle's row, and the
   line must be the reference rendering. Each query is asked twice, so the
   second line comes from a row array built earlier. *)
let test_oracle_answers_all_profiles () =
  List.iter
    (fun p ->
      let b = P.Suite.build p in
      let pag = b.P.Suite.pag in
      let config =
        {
          P.Service.default_config with
          P.Service.threads = 1;
          context_sensitive = false;
          oracle = true;
        }
      in
      let svc = P.Service.create ~config ~type_level:b.P.Suite.type_level pag in
      let o = Option.get (P.Svc_engine.oracle (P.Service.engine svc)) in
      Array.iteri
        (fun i v ->
          let what = Printf.sprintf "%s query %d" p.P.Profile.name v in
          let want = names pag (P.Oracle.outcome o v).P.Query.result in
          let says = function
            | Proto.Answer { id; var; objects; _ } ->
                if id <> i || var <> P.Pag.var_name pag v || objects <> want then
                  Alcotest.failf "%s: wrong answer" what
            | _ -> Alcotest.failf "%s: not an answer" what
          in
          says (check_line what (one_line svc (query i v)));
          says (check_line what (one_line svc (query i v))))
        b.P.Suite.queries;
      P.Service.shutdown svc)
    P.Profile.all

(* A sample of solver answers and budget timeouts per profile, on a CS
   service and on a CI one with the tier off. The expected outcome comes
   from a second engine run in lockstep (same config, same one-query
   batches, so the same jmp store), rendered the slow way. *)
let test_solver_answers_sample () =
  let timeouts = ref 0 and answers = ref 0 in
  List.iter
    (fun (p, context_sensitive) ->
      let b = P.Suite.build p in
      let pag = b.P.Suite.pag in
      let config =
        {
          P.Service.default_config with
          P.Service.threads = 1;
          context_sensitive;
          max_budget = 2_000;
        }
      in
      let svc = P.Service.create ~config ~type_level:b.P.Suite.type_level pag in
      let twin =
        P.Svc_engine.create ~mode:config.P.Service.mode ~threads:1
          ~solver_config:
            {
              (P.Config.with_budget 2_000 P.Config.default) with
              P.Config.context_sensitive;
            }
          ~type_level:b.P.Suite.type_level pag
      in
      let qs = b.P.Suite.queries in
      let stride = max 1 (Array.length qs / 12) in
      let seen = Hashtbl.create 16 in
      Array.iteri
        (fun i v ->
          if i mod stride = 0 && not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            List.iter
              (fun budget ->
                let what =
                  Printf.sprintf "%s%s query %d budget %s" p.P.Profile.name
                    (if context_sensitive then " CS" else " CI") v
                    (Option.fold ~none:"-" ~some:string_of_int budget)
                in
                let eff = Option.value budget ~default:2_000 in
                let report = P.Svc_engine.execute twin ~budget:eff [| v |] in
                let outcome = report.P.Report.r_outcomes.(0) in
                let r = outcome.P.Query.result in
                let timed_out =
                  r = P.Query.Out_of_budget || outcome.P.Query.steps_used > eff
                in
                match check_line what (one_line svc (query ?budget i v)) with
                | Proto.Timeout { reason = `Budget; _ } when timed_out ->
                    incr timeouts
                | Proto.Answer { objects; steps; _ } when not timed_out ->
                    incr answers;
                    if objects <> names pag r then
                      Alcotest.failf "%s: wrong objects" what;
                    if steps <> outcome.P.Query.steps_used then
                      Alcotest.failf "%s: wrong steps" what
                | _ -> Alcotest.failf "%s: reply disagrees with the twin" what)
              [ None; Some 3 ]
          end)
        qs;
      P.Svc_engine.shutdown twin;
      P.Service.shutdown svc)
    (List.concat_map (fun p -> [ (p, true); (p, false) ]) P.Profile.all);
  if !answers < 100 || !timeouts < 100 then
    Alcotest.failf "only %d answers and %d timeouts" !answers !timeouts

(* Random PAGs whose objects draw names from a tiny pool, so equal names
   are common: an answer lists each name once, in [compare] order. *)
let prop_equal_names_share_a_rank =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 6) (oneofl [ "b"; "a"; "a\""; "\xc3\xa9"; ""; "a"; "b0" ]))
        (list_size (0 -- 30)
           (oneof
              [
                map2 (fun x o -> `New (x, o)) (0 -- 5) (0 -- 5);
                map2 (fun x y -> `Assign (x, y)) (0 -- 5) (0 -- 5);
              ])))
  in
  QCheck.Test.make ~name:"equal object names share a rank" ~count:200
    (QCheck.make gen) (fun (objs, edges) ->
      let module B = P.Pag.Build in
      let b = B.create () in
      let vars = Array.init 6 (fun i -> B.add_var b ~app:true (Printf.sprintf "v%d" i)) in
      let objs = Array.of_list (List.map (B.add_obj b) objs) in
      List.iter
        (function
          | `New (x, o) -> B.new_edge b ~dst:vars.(x) objs.(o mod Array.length objs)
          | `Assign (x, y) -> B.assign b ~dst:vars.(x) ~src:vars.(y))
        edges;
      let pag = B.freeze b in
      let config =
        {
          P.Service.default_config with
          P.Service.threads = 1;
          context_sensitive = false;
          oracle = true;
        }
      in
      let svc = P.Service.create ~config ~type_level:(fun _ -> 0) pag in
      let o = Option.get (P.Svc_engine.oracle (P.Service.engine svc)) in
      let ok =
        Array.for_all
          (fun v ->
            let want =
              P.Oracle.points_to_list o v |> List.map (P.Pag.obj_name pag)
              |> List.sort_uniq compare
            in
            let says = function
              | Proto.Answer { objects; _ } -> objects = want
              | _ -> false
            in
            says (check_line "random" (one_line svc (query 1 v))))
          vars
      in
      P.Service.shutdown svc;
      ok)

(* Names that need escaping, and names that differ only past a shared
   prefix, render as the reference does and sort as [compare] does. *)
let test_escaped_names () =
  let odd =
    [ "a\"b"; "tab\there"; "nl\n"; "back\\slash"; "\001ctl"; "\xc3\xa9t\xc3\xa9";
      "plain"; "plain2"; "" ]
  in
  List.iter
    (fun objects ->
      let r =
        Proto.Answer
          {
            id = 3; var = "v\"x"; objects; cached = true; steps = 0;
            latency_us = 0.0; breakdown = P.Svc_span.zero;
          }
      in
      let want = Json.to_string (reference r) in
      Alcotest.(check string) "writer" want (Proto.response_to_string r);
      Alcotest.(check string) "line" (want ^ "\n") (Proto.response_line r))
    [ odd; []; [ "x" ] ]

(* ------------------------------ splice ------------------------------- *)

let with_id r id =
  match r with
  | Proto.Answer a -> Proto.Answer { a with id }
  | Proto.Timeout x -> Proto.Timeout { x with id }
  | Proto.Rejected x -> Proto.Rejected { x with id }
  | Proto.Error e -> Proto.Error { e with id = Some id }
  | Proto.Pong _ -> Proto.Pong id
  | Proto.Stats_reply s -> Proto.Stats_reply { s with id }
  | Proto.Metrics_reply m -> Proto.Metrics_reply { m with id }
  | Proto.Slowlog_reply s -> Proto.Slowlog_reply { s with id }
  | Proto.Explain_reply e -> Proto.Explain_reply { e with id }
  | Proto.Health_reply h -> Proto.Health_reply { h with id }
  | Proto.Drained d -> Proto.Drained { d with id }

(* Ids of every digit count from 1 to 19, either sign, and the extremes. *)
let gen_id =
  let open QCheck.Gen in
  let digits d =
    let lo = if d = 1 then 0 else int_of_float (10.0 ** float_of_int (d - 1)) in
    let hi = if d >= 19 then max_int else int_of_float (10.0 ** float_of_int d) - 1 in
    int_range lo hi
  in
  oneof
    [
      (1 -- 19 >>= digits >>= fun n -> oneofl [ n; -n ]);
      oneofl [ 0; max_int; min_int; -1 ];
    ]

let gen_reply =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 8) in
  let flt =
    oneof
      [ map float_of_int (0 -- 100_000); float_range 0.0 1e7; pure 1e-9; pure 1e300 ]
  in
  let bd =
    map
      (fun (q, b, s, r) ->
        {
          P.Svc_span.bd_queue_wait_us = q;
          bd_batch_wait_us = b;
          bd_solve_us = s;
          bd_respond_us = r;
        })
      (quad flt flt flt flt)
  in
  gen_id >>= fun id ->
  oneof
    [
      map
        (fun ((var, objects, cached), (steps, latency_us, breakdown)) ->
          Proto.Answer { id; var; objects; cached; steps; latency_us; breakdown })
        (pair (triple str (list_size (0 -- 6) str) bool) (triple nat flt bd));
      map
        (fun (reason, cached, (latency_us, breakdown)) ->
          Proto.Timeout { id; reason; cached; latency_us; breakdown })
        (triple (oneofl [ `Budget; `Deadline ]) bool (pair flt bd));
      map (fun reason -> Proto.Rejected { id; reason }) str;
      map (fun (some, reason) -> Proto.Error { id = (if some then Some id else None); reason })
        (pair bool str);
      pure (Proto.Pong id);
      pure (Proto.Stats_reply { id; stats = Json.Obj [ ("admitted", Json.Int 3) ] });
      map (fun body -> Proto.Metrics_reply { id; body }) str;
      pure (Proto.Slowlog_reply { id; entries = Json.List [] });
      map
        (fun (var, obj, (found, depth, latency_us)) ->
          Proto.Explain_reply
            { id; var; obj; found; depth; latency_us; chain = Json.List [ Json.Int 1 ] })
        (triple str str (triple bool nat flt));
      map (fun (healthy, reasons) -> Proto.Health_reply { id; healthy; reasons })
        (pair bool (list_size (0 -- 3) str));
      map (fun completed -> Proto.Drained { id; completed }) nat;
    ]

let prop_splice =
  QCheck.Test.make ~name:"splice = parse, rewrite the id, print" ~count:3000
    (QCheck.make
       ~print:(fun (r, id) -> Printf.sprintf "%s -> %d" (Proto.response_to_string r) id)
       QCheck.Gen.(pair gen_reply gen_id))
    (fun (r, id) ->
      let s = Proto.response_to_string r in
      let reparsed =
        match Proto.response_of_string s with
        | Ok r' -> r'
        | Error e -> QCheck.Test.fail_reportf "%S does not parse: %s" s e
      in
      let want = Proto.response_to_string (with_id reparsed id) ^ "\n" in
      Proto.reply_id s = Proto.response_id r
      && Proto.splice s ~id = Some want
      && Option.bind (Proto.splice s ~id) (fun l ->
             Proto.reply_id (String.sub l 0 (String.length l - 1)))
         = Some id)

(* The scanner's own fuzz: byte soup around the id prefix, and rendered
   replies with one byte replaced or the tail cut. It never raises, an
   id it reads is the one the full parser reads, and a splice it makes
   parses as the same reply under the new id. *)
let gen_prefix_fuzz =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        map (String.make 1) char;
        oneofl
          [
            "{\"id\":"; "{\"id\":null,"; "-"; "0"; "9"; "19"; "4611686018427387903";
            "4611686018427387904"; "-4611686018427387904"; "99999999999999999999";
            ","; "}"; "\"status\":\"pong\""; "\"status\":\"error\",\"reason\":\"x\"";
            "1e3"; " "; "\"";
          ];
      ]
  in
  let soup = map (String.concat "") (list_size (0 -- 12) piece) in
  let mutated =
    gen_reply >>= fun r ->
    let s = Proto.response_to_string r in
    let n = String.length s in
    0 -- (n - 1) >>= fun i ->
    char >>= fun c ->
    oneofl [ s; String.sub s 0 i; String.mapi (fun j d -> if j = i then c else d) s ]
  in
  oneof [ soup; mutated ]

let prop_prefix_scanner =
  QCheck.Test.make ~name:"reply prefix scanner agrees with the parser" ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_prefix_fuzz)
    (fun line ->
      let parsed = Proto.response_of_string line in
      (match (Proto.reply_id line, parsed) with
      | Some n, Ok r when Proto.response_id r <> Some n ->
          QCheck.Test.fail_reportf "scanner read %d" n
      | _ -> ());
      match (Proto.splice line ~id:42, parsed) with
      | Some l, Ok r ->
          Proto.response_of_string (String.sub l 0 (String.length l - 1))
          = Ok (with_id r 42)
      | _ -> true)

let suite =
  ( "wire",
    [
      Alcotest.test_case "oracle answers render as the reference (all profiles)"
        `Slow test_oracle_answers_all_profiles;
      Alcotest.test_case "solver answers and timeouts render as the reference"
        `Slow test_solver_answers_sample;
      QCheck_alcotest.to_alcotest prop_equal_names_share_a_rank;
      Alcotest.test_case "escaped names" `Quick test_escaped_names;
      QCheck_alcotest.to_alcotest prop_splice;
      QCheck_alcotest.to_alcotest prop_prefix_scanner;
    ] )

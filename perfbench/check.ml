(* The independent correctness reference and the answer checker.

   Context-sensitive workloads are checked against a [Seq]-mode run of the
   solver at the same budget: one thread, no jmp sharing, no scheduling, so
   none of the parallel machinery under test contributes to the expected
   outcome. The context-insensitive workload is checked against the
   worklist Andersen solver, a separate whole-program algorithm. *)

module P = Parcfl

type expect =
  | Objs of string list  (** the object names, sorted *)
  | Oob  (** budget exhausted *)

(* Indexed by variable id; [None] for variables the workload never asks. *)
type reference = expect option array

let names_of_objs pag objs = List.sort compare (List.map (P.Pag.obj_name pag) objs)

let expect_of_result pag = function
  | P.Query.Points_to _ as r -> Objs (names_of_objs pag (P.Query.objects r))
  | P.Query.Out_of_budget -> Oob

let solver_config ~context_sensitive =
  {
    (P.Config.with_budget P.Profile.default_budget P.Config.default) with
    P.Config.context_sensitive;
  }

(* Returns the reference and the sequential pass's wall seconds (T_seq). *)
let seq_reference (suite : P.Suite.t) =
  let pag = suite.P.Suite.pag in
  let report =
    P.Runner.run ~type_level:suite.P.Suite.type_level
      ~solver_config:(solver_config ~context_sensitive:true)
      ~mode:P.Mode.Seq ~threads:1 ~queries:suite.P.Suite.queries pag
  in
  let r = Array.make (P.Pag.n_vars pag) None in
  Array.iter
    (fun (o : P.Query.outcome) ->
      r.(o.P.Query.var) <- Some (expect_of_result pag o.P.Query.result))
    report.P.Report.r_outcomes;
  (r, report.P.Report.r_wall_seconds)

let andersen_reference pag (vars : int array) =
  let a = P.Andersen.solve pag in
  let r = Array.make (P.Pag.n_vars pag) None in
  Array.iter
    (fun v -> r.(v) <- Some (Objs (names_of_objs pag (P.Andersen.points_to_list a v))))
    vars;
  r

let show = function
  | Objs os -> "{" ^ String.concat "," os ^ "}"
  | Oob -> "budget-exhausted"

(* A query outcome against the reference. [allow_oob] admits a budget
   exhaustion where the reference has a full answer: a budget-refined
   query on the CI engine may legitimately run out where the whole-program
   reference does not. *)
let judge_outcome ?(allow_oob = false) (r : reference) ~var got =
  match r.(var) with
  | None -> Stat.Wrong (Printf.sprintf "#%d: no reference" var)
  | Some want -> (
      match (want, got) with
      | Objs a, Objs b when a = b -> Stat.Resolved
      | Oob, Oob -> Stat.Exhausted
      | Objs _, Oob when allow_oob -> Stat.Exhausted
      | _ ->
          Stat.Wrong
            (Printf.sprintf "#%d: got %s, reference %s" var (show got)
               (show want)))

let judge_batch (r : reference) pag (report : P.Report.t) tally ~slo_us
    ~latency_us =
  Array.iter
    (fun (o : P.Query.outcome) ->
      let fate =
        judge_outcome r ~var:o.P.Query.var
          (expect_of_result pag o.P.Query.result)
      in
      Stat.record tally ~latency_us ~slo_us fate)
    report.P.Report.r_outcomes

(* {1 Explain chains} *)

let str k j =
  match P.Json.member k j with Some (P.Json.String s) -> Some s | _ -> None

let int k j = match P.Json.member k j with Some (P.Json.Int i) -> Some i | _ -> None

(* Replays a witness chain from the wire: every edge id must resolve via
   [Pag.edge_of_id] to an edge of the claimed kind whose endpoints carry
   the claimed names, the chain must start at [var], each hop must continue
   where the previous one ended, and it must end in [obj]'s allocation. *)
let check_chain pag ~var ~obj chain =
  let vn = P.Pag.var_name pag in
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let expect_name what want got =
    if Some want = got then Ok ()
    else
      fail "%s: edge says %s, chain says %s" what want
        (Option.value got ~default:"<missing>")
  in
  let edge_of j =
    match int "edge" j with
    | None -> fail "edge without an id"
    | Some id -> (
        match P.Pag.edge_of_id pag id with
        | e -> Ok e
        | exception Invalid_argument m -> fail "edge id %d: %s" id m)
  in
  (* [cursor] is the name the next hop must start from; [heap] holds the
     field of a load still waiting for its store. *)
  let rec walk cursor heap = function
    | [] -> fail "chain ends before reaching an allocation"
    | j :: rest -> (
        let* e = edge_of j in
        let kind = Option.value (str "kind" j) ~default:"" in
        let hop ~dst ~src =
          let* () = expect_name "dst" (vn dst) (str "dst" j) in
          let* () = expect_name "src" (vn src) (str "src" j) in
          if vn dst <> cursor then fail "%s hop starts at %s, not %s" kind (vn dst) cursor
          else walk (vn src) None rest
        in
        match (kind, e, heap) with
        | "assign", P.Pag.Assign { dst; src }, None
        | "assign_g", P.Pag.Assign_global { dst; src }, None ->
            hop ~dst ~src
        | "param", P.Pag.Param { dst; src; site }, None
        | "ret", P.Pag.Ret { dst; src; site }, None ->
            if int "site" j <> Some site then fail "%s: call site mismatch" kind
            else hop ~dst ~src
        | "load", P.Pag.Load { dst; base; field }, None ->
            let* () = expect_name "dst" (vn dst) (str "dst" j) in
            let* () = expect_name "base" (vn base) (str "base" j) in
            if vn dst <> cursor then fail "load starts at %s, not %s" (vn dst) cursor
            else if int "field" j <> Some field then fail "load: field mismatch"
            else walk cursor (Some field) rest
        | "store", P.Pag.Store { base; field; src }, Some f ->
            let* () = expect_name "base" (vn base) (str "base" j) in
            let* () = expect_name "src" (vn src) (str "src" j) in
            if field <> f || int "field" j <> Some field then
              fail "store field %d does not match its load's %d" field f
            else walk (vn src) None rest
        | "new", P.Pag.New { dst; obj = o }, None ->
            let* () = expect_name "dst" (vn dst) (str "dst" j) in
            let* () = expect_name "obj" (P.Pag.obj_name pag o) (str "obj" j) in
            if vn dst <> cursor then fail "new at %s, not %s" (vn dst) cursor
            else if o <> obj then fail "chain allocates %s, not the asked object" (P.Pag.obj_name pag o)
            else if rest <> [] then fail "edges after the allocation"
            else Ok ()
        | _ -> fail "edge kind %S does not match edge id's relation" kind)
  in
  match chain with
  | P.Json.List (_ :: _ as edges) -> walk (vn var) None edges
  | _ -> fail "empty chain"

(* {1 Wire replies} *)

let query_line ?budget ~id v =
  P.Svc_protocol.request_to_string
    (P.Svc_protocol.Query
       { id; var = Printf.sprintf "#%d" v; budget; deadline_ms = None; trace = None })

let explain_line ~id v o =
  P.Svc_protocol.request_to_string
    (P.Svc_protocol.Explain { id; var = Printf.sprintf "#%d" v; obj = Printf.sprintf "#%d" o })

type kind = Plain of int | Refined of int | Explain of int * int

let judge_reply pag (reference : reference) kind line =
  match P.Svc_protocol.response_of_string line with
  | Error e -> (Stat.Error_reply ("unparsable reply: " ^ e), None)
  | Ok resp -> (
      let name_ok v name = name = P.Pag.var_name pag v in
      match (kind, resp) with
      | (Plain v | Refined v), P.Svc_protocol.Answer { var; objects; _ } ->
          if not (name_ok v var) then (Stat.Wrong ("answer names another variable " ^ var), Some resp)
          else
            ( judge_outcome reference ~var:v
                ~allow_oob:(match kind with Refined _ -> true | _ -> false)
                (Objs (List.sort compare objects)),
              Some resp )
      | (Plain v | Refined v), P.Svc_protocol.Timeout { reason = `Budget; _ } ->
          ( judge_outcome reference ~var:v
              ~allow_oob:(match kind with Refined _ -> true | _ -> false)
              Oob,
            Some resp )
      | Explain (v, o), P.Svc_protocol.Explain_reply { var; obj; found; chain; _ } ->
          if not found then (Stat.Wrong "explain found no witness", Some resp)
          else if not (name_ok v var && obj = P.Pag.obj_name pag o) then
            (Stat.Wrong "explain reply names another pair", Some resp)
          else (
            match check_chain pag ~var:v ~obj:o chain with
            | Ok () -> (Stat.Done, Some resp)
            | Error e -> (Stat.Wrong ("explain chain: " ^ e), Some resp))
      | _, P.Svc_protocol.Rejected _ -> (Stat.Rejected, Some resp)
      | _, P.Svc_protocol.Error { reason; _ } -> (Stat.Error_reply reason, Some resp)
      | _, _ -> (Stat.Wrong ("unexpected reply " ^ line), Some resp))


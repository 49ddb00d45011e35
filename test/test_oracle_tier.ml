(* The O(1) pair-query oracle (lib/oracle) and its service tier.

   Correctness is differential three ways: the oracle's rows must equal
   field-sensitive Andersen on every variable (the whole-program witness),
   must equal the budgetless context-insensitive demand solver on query
   sets (the engine the tier sits in front of), and an oracle-tiered
   service must return byte-identical (var, objects) payloads to an
   oracle-less one on the same traffic. The tier's bookkeeping is checked
   separately: refined requests fall through as misses, a context-
   sensitive service falls back, imports arm the tier, and the
   stats/exposition surfaces agree. *)

module P = Parcfl
module Pag = P.Pag
module Query = P.Query

let pag_of_profile p =
  let program = P.Genprog.generate p in
  let cg = P.Callgraph.build program in
  (P.Lower.lower program cg).P.Lower.pag

let tiny = lazy (Option.get (P.Suite.build_by_name "tiny"))

(* Variables where the oracle and Andersen disagree (must be []). *)
let oracle_vs_andersen pag =
  let oracle = P.Oracle.build ~generation:0 pag in
  let andersen = P.Andersen.solve pag in
  let bad = ref [] in
  for v = 0 to Pag.n_vars pag - 1 do
    if P.Oracle.points_to_list oracle v <> P.Andersen.points_to_list andersen v
    then bad := v :: !bad
  done;
  !bad

let demand_pts session v =
  List.sort compare (Query.objects (P.Solver.points_to session v).Query.result)

(* Queried variables where the oracle and the budgetless CI demand solver
   disagree (must be []). *)
let oracle_vs_demand pag queries =
  let oracle = P.Oracle.build ~generation:0 pag in
  let session =
    P.Solver.make_session ~config:P.Config.oracle
      ~ctx_store:(P.Ctx.create_store ()) pag
  in
  List.filter
    (fun v -> P.Oracle.points_to_list oracle v <> demand_pts session v)
    queries

let test_all_profiles () =
  (* Whole-program agreement on the entire built-in suite: every variable
     of every benchmark profile. This is the test that holds the copy-SCC
     row sharing (one row per component) to the theorem it relies on. *)
  List.iter
    (fun p ->
      let pag = pag_of_profile p in
      Alcotest.(check (list int))
        (Printf.sprintf "oracle = Andersen on %s" p.P.Profile.name)
        [] (oracle_vs_andersen pag))
    P.Profile.all

let test_demand_agreement () =
  List.iter
    (fun name ->
      let b = Option.get (P.Suite.build_by_name name) in
      let queries =
        Array.to_list b.P.Suite.queries
        |> List.sort_uniq compare
        |> List.filteri (fun i _ -> i < 100)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "oracle = budgetless demand on %s" name)
        []
        (oracle_vs_demand b.P.Suite.pag queries))
    [ "tiny"; "_200_check" ]

(* Random PAGs: the same edge-soup generator as test_oracle.ml — the
   equivalence must hold for any PAG, not just Java-shaped ones. *)
let random_pag_gen =
  QCheck.Gen.(
    let small = int_bound 7 in
    list_size (int_bound 24)
      (oneof
         [
           map2 (fun a b -> `New (a, b)) small (int_bound 4);
           map2 (fun a b -> `Assign (a, b)) small small;
           map2 (fun a b -> `Gassign (a, b)) small small;
           map3 (fun a b f -> `Load (a, b, f)) small small (int_bound 2);
           map3 (fun a f b -> `Store (a, f, b)) small (int_bound 2) small;
           map3 (fun a i b -> `Param (a, i, b)) small (int_bound 3) small;
           map3 (fun a i b -> `Ret (a, i, b)) small (int_bound 3) small;
         ]))

let build_random edges =
  let module B = Pag.Build in
  let b = B.create () in
  let vars = Array.init 8 (fun i -> B.add_var b (Printf.sprintf "v%d" i)) in
  let objects = Array.init 5 (fun i -> B.add_obj b (Printf.sprintf "o%d" i)) in
  List.iter
    (fun e ->
      match e with
      | `New (x, o) -> B.new_edge b ~dst:vars.(x) objects.(o)
      | `Assign (x, y) -> B.assign b ~dst:vars.(x) ~src:vars.(y)
      | `Gassign (x, y) -> B.assign_global b ~dst:vars.(x) ~src:vars.(y)
      | `Load (x, p, f) -> B.load b ~dst:vars.(x) ~base:vars.(p) f
      | `Store (q, f, y) -> B.store b ~base:vars.(q) f ~src:vars.(y)
      | `Param (x, i, y) -> B.param b ~dst:vars.(x) ~site:i ~src:vars.(y)
      | `Ret (x, i, y) -> B.ret b ~dst:vars.(x) ~site:i ~src:vars.(y))
    edges;
  B.freeze b

let prop_three_way_random =
  QCheck.Test.make
    ~name:"oracle = Andersen = budgetless demand on random PAGs" ~count:100
    (QCheck.make random_pag_gen)
    (fun edges ->
      let pag = build_random edges in
      let all_vars = List.init (Pag.n_vars pag) Fun.id in
      oracle_vs_andersen pag = [] && oracle_vs_demand pag all_vars = [])

let prop_may_alias_random =
  QCheck.Test.make ~name:"may_alias agrees with row intersection" ~count:60
    (QCheck.make random_pag_gen)
    (fun edges ->
      let pag = build_random edges in
      let oracle = P.Oracle.build ~generation:0 pag in
      let n = Pag.n_vars pag in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let inter =
            List.exists
              (fun o -> List.mem o (P.Oracle.points_to_list oracle b))
              (P.Oracle.points_to_list oracle a)
          in
          if P.Oracle.may_alias oracle a b <> inter then ok := false
        done
      done;
      !ok)

let test_shape () =
  let b = Lazy.force tiny in
  let pag = b.P.Suite.pag in
  let oracle = P.Oracle.build ~generation:7 pag in
  Alcotest.(check int) "generation" 7 (P.Oracle.generation oracle);
  Alcotest.(check int) "n_vars" (Pag.n_vars pag) (P.Oracle.n_vars oracle);
  Alcotest.(check bool) "rows deduplicated" true
    (P.Oracle.distinct_rows oracle <= Pag.n_vars pag);
  Alcotest.(check bool) "compressed accounting positive" true
    (P.Oracle.compressed_bytes oracle > 0);
  (* The borrowed bitset and the materialised list are the same set. *)
  for v = 0 to Pag.n_vars pag - 1 do
    Alcotest.(check (list int))
      "points_to row = points_to_list" (P.Oracle.points_to_list oracle v)
      (P.Bitset.elements (P.Oracle.points_to oracle v))
  done;
  (match P.Oracle.points_to oracle (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative variable accepted");
  match P.Oracle.points_to oracle (Pag.n_vars pag) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range variable accepted"

let test_export_import () =
  let pag = (Lazy.force tiny).P.Suite.pag in
  let oracle = P.Oracle.build ~generation:3 pag in
  let text = P.Oracle.export oracle in
  (match P.Oracle.import ~generation:3 pag text with
  | Error e -> Alcotest.failf "round trip refused: %s" e
  | Ok back ->
      for v = 0 to Pag.n_vars pag - 1 do
        Alcotest.(check (list int))
          "imported rows agree"
          (P.Oracle.points_to_list oracle v)
          (P.Oracle.points_to_list back v)
      done;
      Alcotest.(check int) "distinct rows survive"
        (P.Oracle.distinct_rows oracle)
        (P.Oracle.distinct_rows back);
      Alcotest.(check string) "re-export is byte-identical" text
        (P.Oracle.export back));
  (match P.Oracle.import ~generation:4 pag text with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "generation mismatch accepted");
  (match P.Oracle.import ~generation:3 pag "notasnap 1 3 0 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong magic accepted");
  let header = List.hd (String.split_on_char '\n' text) in
  match P.Oracle.import ~generation:3 pag (header ^ "\n") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot accepted"

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Fuzzing the one snapshot parser: token soup from the format's own
   alphabet, and a real export with bytes flipped, lines cut, duplicated
   or dropped, and numbers (header counts, row ids) replaced. [import]
   must answer Ok/Error and never raise; what it accepts must re-export
   byte-identically and answer every variable without raising. *)
let tiny_export =
  lazy
    (P.Oracle.export
       (P.Oracle.build ~generation:0 (Lazy.force tiny).P.Suite.pag))

let gen_snap_soup =
  let open QCheck.Gen in
  let token =
    oneofl
      [ "oraclesnap"; "oraclesnap 1 0 "; "0"; "1"; "2"; "7"; "19"; "85";
        "-1"; "+1"; "01"; "99999999999999999999"; " "; "  "; "\n"; "\r" ]
  in
  map (String.concat "") (list_size (0 -- 60) token)

let gen_mutated_snap =
  let open QCheck.Gen in
  let* edits = list_size (1 -- 3) (triple (0 -- 5) nat (pair nat char)) in
  let alphabet = "0123456789 \n-x" in
  let char_of c = alphabet.[Char.code c mod String.length alphabet] in
  let on_lines kind i s =
    let lines = String.split_on_char '\n' s in
    let i = i mod List.length lines in
    List.concat
      (List.mapi
         (fun k l ->
           if k < i then [ l ]
           else if k > i then if kind = 2 then [] else [ l ]
           else match kind with 2 -> [ l ] | 3 -> [] | _ -> [ l; l ])
         lines)
    |> String.concat "\n"
  in
  (* Replace one number (a maximal digit run) with [j mod 64], which
     lands both inside and outside the row-id and object ranges. *)
  let renumber i j s =
    let len = String.length s in
    let digit k = k >= 0 && k < len && s.[k] >= '0' && s.[k] <= '9' in
    let starts =
      List.init len Fun.id
      |> List.filter (fun k -> digit k && not (digit (k - 1)))
    in
    match starts with
    | [] -> s
    | _ ->
        let k = List.nth starts (i mod List.length starts) in
        let stop = ref k in
        while digit !stop do incr stop done;
        String.sub s 0 k ^ string_of_int (j mod 64)
        ^ String.sub s !stop (len - !stop)
  in
  return
    (List.fold_left
       (fun s (kind, i, (j, c)) ->
         let n = String.length s in
         if n = 0 then s
         else
           match kind with
           | 0 ->
               String.mapi (fun k x -> if k = i mod n then char_of c else x) s
           | 1 -> renumber i j s
           | _ -> on_lines kind i s)
       (Lazy.force tiny_export) edits)

let prop_import_total =
  let pag = (Lazy.force tiny).P.Suite.pag in
  QCheck.Test.make ~name:"oracle snapshot parser never raises" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneof [ gen_snap_soup; gen_mutated_snap ]))
    (fun text ->
      match P.Oracle.import ~generation:0 pag text with
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok o -> (
          match
            for v = 0 to P.Oracle.n_vars o - 1 do
              ignore (P.Oracle.outcome o v);
              ignore (P.Oracle.may_alias o v 0)
            done
          with
          | exception e ->
              QCheck.Test.fail_reportf "accepted, then a query raised %s"
                (Printexc.to_string e)
          | () -> P.Oracle.export o = text))

(* ------------------------- service tier ---------------------------- *)

let make_service ?(context_sensitive = false) ~oracle () =
  let b = Lazy.force tiny in
  let config =
    {
      P.Service.default_config with
      P.Service.threads = 1;
      max_batch = 8;
      context_sensitive;
      oracle;
    }
  in
  (b, P.Service.create ~config ~type_level:b.P.Suite.type_level b.P.Suite.pag)

(* Drive budget-free queries and table each response's comparable payload
   by id. Tier metadata (latency, steps, cached) is excluded on purpose:
   identity is defined over what the answer {e says}, (var, objects). *)
let drive_and_table svc queries =
  let table = Hashtbl.create 64 in
  Array.iteri
    (fun i v ->
      P.Service.submit svc
        ~now:(float_of_int i)
        ~respond:(fun r ->
          let payload =
            match r with
            | P.Svc_protocol.Answer { var; objects; _ } ->
                `Answer (var, objects)
            | P.Svc_protocol.Timeout { reason; _ } -> `Timeout reason
            | _ -> `Other
          in
          Hashtbl.replace table i payload)
        (P.Svc_protocol.Query
           {
             id = i;
             var = Printf.sprintf "#%d" v;
             budget = None;
             deadline_ms = None;
             trace = None;
           });
      ignore (P.Service.pump svc ~now:(float_of_int i)))
    queries;
  P.Service.drain svc ~now:1e6;
  table

let submit_one svc ~id ~var ~budget ~deadline_ms =
  let got = ref None in
  P.Service.submit svc ~now:0.0
    ~respond:(fun r -> got := Some r)
    (P.Svc_protocol.Query { id; var; budget; deadline_ms; trace = None });
  ignore (P.Service.pump svc ~now:0.0);
  P.Service.drain svc ~now:0.0;
  !got

let test_service_identity () =
  let b, off = make_service ~oracle:false () in
  let _, on = make_service ~oracle:true () in
  let queries = b.P.Suite.queries in
  let off_t = drive_and_table off queries in
  let on_t = drive_and_table on queries in
  Array.iteri
    (fun i _ ->
      let payload side t =
        match Hashtbl.find_opt t i with
        | Some p -> p
        | None -> Alcotest.failf "%s arm lost request %d" side i
      in
      if payload "off" off_t <> payload "on" on_t then
        Alcotest.failf "request %d differs between the arms" i)
    queries;
  let stat = Serve_mix.stat on in
  Alcotest.(check int) "every request was an oracle hit"
    (Array.length queries) (stat "oracle_hits");
  (* The tier sits before the cache: oracle traffic never touches it. *)
  Alcotest.(check int) "no cache lookups behind the tier" 0
    (stat "cache_hits" + stat "cache_misses");
  Alcotest.(check int) "off arm never counts oracle hits" 0
    (Serve_mix.stat off "oracle_hits");
  (* One refined request, then [stats] reports the tier live, both of its
     outcomes, and the live artefact's shape. *)
  ignore
    (submit_one on ~id:999 ~var:"#0" ~budget:(Some 4000) ~deadline_ms:None);
  Alcotest.(check int) "stats reports the tier live" 1 (stat "oracle_live");
  Alcotest.(check bool) "hits actually flowed" true (stat "oracle_hits" > 0);
  Alcotest.(check bool) "miss actually flowed" true (stat "oracle_misses" > 0);
  (match P.Svc_engine.oracle (P.Service.engine on) with
  | Some o ->
      Alcotest.(check int) "stats: the live oracle's distinct rows"
        (P.Oracle.distinct_rows o) (stat "oracle_distinct_rows")
  | None -> Alcotest.fail "on arm lost its oracle");
  P.Service.shutdown off;
  P.Service.shutdown on;
  (* The serving mix: 400 requests, every one an oracle hit with the
     solver's payload. None reaches the pipeline: no step walked, no
     queue or batch wait, and the on arm never forms a batch. *)
  let b = Lazy.force Serve_mix.check in
  let vars = Serve_mix.mix b in
  let arm oracle =
    let svc = Serve_mix.service ~context_sensitive:false ~oracle b in
    let responses = Serve_mix.drive svc vars in
    let counts =
      (Serve_mix.stat svc "oracle_hits", Serve_mix.stat svc "batches")
    in
    P.Service.shutdown svc;
    (responses, counts)
  in
  let off_r, _ = arm false in
  let on_r, (hits, batches) = arm true in
  Alcotest.(check int) "every mix request an oracle hit" 400 hits;
  Alcotest.(check int) "the oracle arm never batches" 0 batches;
  Array.iteri
    (fun i r ->
      match (off_r.(i), r) with
      | ( P.Svc_protocol.Answer { var; objects; _ },
          P.Svc_protocol.Answer
            { var = var'; objects = objects'; steps; breakdown; _ } ) ->
          if (var, objects) <> (var', objects') then
            Alcotest.failf "mix request %d differs between the arms" i;
          if
            steps <> 0
            || breakdown.P.Svc_span.bd_queue_wait_us <> 0.0
            || breakdown.P.Svc_span.bd_batch_wait_us <> 0.0
          then
            Alcotest.failf "mix request %d entered the pipeline (%d steps)" i
              steps
      | _ ->
          Alcotest.failf "mix request %d: %s vs %s" i
            (P.Svc_protocol.response_to_string off_r.(i))
            (P.Svc_protocol.response_to_string r))
    on_r

(* The warm start's whole effect on the serving mix: a cold service and
   an oracle-armed one both answer it in full, the cold solver walks
   steps for it and the oracle walks none. *)
let test_oracle_cuts_steps () =
  let b = Lazy.force Serve_mix.check in
  let vars = Serve_mix.mix b in
  let run oracle =
    let svc = Serve_mix.service ~context_sensitive:false ~oracle b in
    let responses = Serve_mix.drive svc vars in
    P.Service.shutdown svc;
    (Serve_mix.completed responses, Serve_mix.steps responses)
  in
  let cold_ok, cold_steps = run false in
  let warm_ok, warm_steps = run true in
  Alcotest.(check int) "cold completes the mix" 400 cold_ok;
  Alcotest.(check int) "oracle completes the mix" 400 warm_ok;
  Alcotest.(check int) "the oracle arm walks 0 steps" 0 warm_steps;
  if cold_steps <= 0 then Alcotest.fail "the cold arm walked no steps"

(* The measured row behind the oracle being the one warm start: on
   avrora and luindex the cold CI solver leaves much of the 400-query mix
   out of budget, while the oracle tier answers all of it with
   Andersen's object sets. *)
let test_oracle_completes_budget_bound () =
  List.iter
    (fun (name, cold_floor) ->
      let b = Option.get (P.Suite.build_by_name name) in
      let vars = Serve_mix.mix b in
      let run oracle =
        let svc = Serve_mix.service ~context_sensitive:false ~oracle b in
        let responses = Serve_mix.drive svc vars in
        P.Service.shutdown svc;
        responses
      in
      let cold = Serve_mix.completed (run false) in
      if cold < cold_floor then
        Alcotest.failf "%s: cold CI completed %d < %d" name cold cold_floor;
      let warm = run true in
      Alcotest.(check int) (name ^ ": oracle completes the mix") 400
        (Serve_mix.completed warm);
      let pag = b.P.Suite.pag in
      let andersen = P.Andersen.solve pag in
      Array.iteri
        (fun i r ->
          match r with
          | P.Svc_protocol.Answer { objects; _ } ->
              let expect =
                P.Andersen.points_to_list andersen vars.(i)
                |> List.map (Pag.obj_name pag)
                |> List.sort_uniq compare
              in
              if objects <> expect then
                Alcotest.failf "%s request %d: oracle answer is not Andersen's"
                  name i
          | _ -> ())
        warm)
    [ ("avrora", 181); ("luindex", 211) ]

let test_refined_falls_through () =
  let _, svc = make_service ~oracle:true () in
  let stat = Serve_mix.stat svc in
  (* A budgeted request must get the solver's semantics, not the oracle's
     exhaustive answer — it falls through and counts a miss. *)
  (match
     submit_one svc ~id:0 ~var:"#0" ~budget:(Some 4000) ~deadline_ms:None
   with
  | Some (P.Svc_protocol.Answer _) | Some (P.Svc_protocol.Timeout _) -> ()
  | _ -> Alcotest.fail "budgeted request got no solver response");
  Alcotest.(check int) "budget refinement is a miss" 1 (stat "oracle_misses");
  (match
     submit_one svc ~id:1 ~var:"#0" ~budget:None
       ~deadline_ms:(Some 1_000_000.0)
   with
  | Some (P.Svc_protocol.Answer _) | Some (P.Svc_protocol.Timeout _) -> ()
  | _ -> Alcotest.fail "deadlined request got no solver response");
  Alcotest.(check int) "deadline refinement is a miss" 2
    (stat "oracle_misses");
  Alcotest.(check int) "refined traffic never hits" 0 (stat "oracle_hits");
  P.Service.shutdown svc

(* The oracle holds the CI relation: asking a CS service for it is a
   configuration error, and an import can never smuggle CI rows into a CS
   engine either. *)
let test_cs_service_refuses_oracle () =
  (match make_service ~context_sensitive:true ~oracle:true () with
  | _, svc ->
      P.Service.shutdown svc;
      Alcotest.fail "CS service created with the oracle tier"
  | exception Invalid_argument _ -> ());
  let _, svc = make_service ~context_sensitive:true ~oracle:false () in
  let text =
    P.Oracle.export (P.Oracle.build ~generation:0 (Lazy.force tiny).P.Suite.pag)
  in
  (match P.Service.import_oracle svc text with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "CS service accepted an oracle import");
  P.Service.shutdown svc

let test_import_arms_tier () =
  let b, svc = make_service ~oracle:false () in
  let stat = Serve_mix.stat svc in
  (* Without the tier, budget-free traffic takes the normal path and no
     oracle counter moves. *)
  ignore (submit_one svc ~id:0 ~var:"#0" ~budget:None ~deadline_ms:None);
  Alcotest.(check int) "tier off: no oracle accounting" 0
    (stat "oracle_hits" + stat "oracle_misses");
  let donor = P.Oracle.build ~generation:0 b.P.Suite.pag in
  (match P.Service.import_oracle svc (P.Oracle.export donor) with
  | Error e -> Alcotest.failf "import refused: %s" e
  | Ok rows ->
      Alcotest.(check int) "imported row count" (P.Oracle.distinct_rows donor)
        rows);
  (* The joiner path: a successful import arms the tier. *)
  (match submit_one svc ~id:1 ~var:"#1" ~budget:None ~deadline_ms:None with
  | Some (P.Svc_protocol.Answer { objects; _ }) ->
      let pag = b.P.Suite.pag in
      let expect =
        P.Oracle.points_to_list donor 1
        |> List.map (Pag.obj_name pag)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list string)) "armed answer = donor rows" expect objects
  | _ -> Alcotest.fail "armed tier did not answer");
  Alcotest.(check int) "post-import hit" 1 (stat "oracle_hits");
  P.Service.shutdown svc

(* A snapshot of another PAG passes the generation check (every fresh
   process is generation 0) but answers rows of the wrong graph: the
   import must be an [Error] naming both shapes, the tier must stay
   unarmed, and the next query must be the solver's. *)
let test_import_other_pag_refused () =
  let small = Lazy.force tiny and big = Lazy.force Serve_mix.check in
  let shape b =
    Printf.sprintf "%d vars / %d objs"
      (Pag.n_vars b.P.Suite.pag)
      (Pag.n_objs b.P.Suite.pag)
  in
  List.iter
    (fun (donor, joiner) ->
      let text =
        P.Oracle.export (P.Oracle.build ~generation:0 donor.P.Suite.pag)
      in
      let svc = Serve_mix.service ~context_sensitive:false joiner in
      (match P.Service.import_oracle svc text with
      | Ok rows -> Alcotest.failf "foreign oracle accepted (%d rows)" rows
      | Error e ->
          if not (contains e (shape donor) && contains e (shape joiner)) then
            Alcotest.failf "error does not name both shapes: %s" e);
      Alcotest.(check bool) "tier stays unarmed" true
        (P.Svc_engine.oracle (P.Service.engine svc) = None);
      (match submit_one svc ~id:0 ~var:"#0" ~budget:None ~deadline_ms:None with
      | Some (P.Svc_protocol.Answer _) -> ()
      | r ->
          Alcotest.failf "query after a refused import: %s"
            (match r with
            | Some r -> P.Svc_protocol.response_to_string r
            | None -> "no response"));
      let stat = Serve_mix.stat svc in
      Alcotest.(check int) "the solver answered" 1 (stat "batches");
      Alcotest.(check int) "no oracle accounting" 0
        (stat "oracle_hits" + stat "oracle_misses");
      P.Service.shutdown svc)
    [ (small, big); (big, small) ]

let suite =
  ( "oracle_tier",
    [
      Alcotest.test_case "oracle = Andersen on all profiles" `Slow
        test_all_profiles;
      Alcotest.test_case "oracle = budgetless demand" `Slow
        test_demand_agreement;
      QCheck_alcotest.to_alcotest prop_three_way_random;
      QCheck_alcotest.to_alcotest prop_may_alias_random;
      Alcotest.test_case "shape and bounds" `Quick test_shape;
      Alcotest.test_case "export/import round trip" `Quick test_export_import;
      QCheck_alcotest.to_alcotest prop_import_total;
      Alcotest.test_case "service answers byte-identical" `Quick
        test_service_identity;
      Alcotest.test_case "refined requests fall through" `Quick
        test_refined_falls_through;
      Alcotest.test_case "CS service refuses the oracle" `Quick
        test_cs_service_refuses_oracle;
      Alcotest.test_case "import arms the tier" `Quick test_import_arms_tier;
      Alcotest.test_case "import of another PAG refused" `Quick
        test_import_other_pag_refused;
      Alcotest.test_case "oracle cuts the mix's steps" `Quick
        test_oracle_cuts_steps;
      Alcotest.test_case "oracle completes budget-bound mixes" `Slow
        test_oracle_completes_budget_bound;
    ] )

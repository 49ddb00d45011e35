(* Self-tests of the benchmark's own rules: the percentile rule, the
   outcome accounting, and that the reference checker rejects corrupted
   answers and witness chains. Run with `bench.exe --self-test`. *)

module P = Parcfl
module Proto = P.Svc_protocol

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let ramp n = List.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  check "p50 of 20 samples leaves 10 beyond" (Stat.quantile (ramp 20) 0.5 = Some 10.0);
  check "p50 of 19 samples is refused" (Stat.quantile (ramp 19) 0.5 = None);
  check "p90 of 100 samples" (Stat.quantile (ramp 100) 0.9 = Some 90.0);
  check "p90 of 99 samples is refused" (Stat.quantile (ramp 99) 0.9 = None);
  check "p99 of 1000 samples" (Stat.quantile (ramp 1000) 0.99 = Some 990.0);
  check "p99 of 999 samples is refused" (Stat.quantile (ramp 999) 0.99 = None);
  check "p99 of 100 samples is refused" (Stat.quantile (ramp 100) 0.99 = None);
  check "median of an even count" (Stat.median [ 4.0; 1.0; 3.0; 2.0 ] = Some 2.5);
  check "no median of nothing" (Stat.median [] = None)

let accounting () =
  let t = Stat.tally () in
  let slo_us = 100.0 in
  Stat.record t ~latency_us:50.0 ~slo_us Stat.Resolved;
  Stat.record t ~latency_us:500.0 ~slo_us Stat.Resolved;
  Stat.record t ~latency_us:50.0 ~slo_us Stat.Exhausted;
  Stat.record t ~latency_us:50.0 ~slo_us Stat.Done;
  Stat.record t ~latency_us:50.0 ~slo_us (Stat.Wrong "x");
  Stat.record t ~latency_us:10.0 ~slo_us Stat.Rejected;
  Stat.record t ~slo_us Stat.Dead;
  Stat.record t ~slo_us Stat.Unanswered;
  check "every request counts as sent" (t.Stat.sent = 8);
  check "budget exhaustion is not a failure" (t.Stat.failed = 4);
  check "failed_frac = (wrong+rejected+dead+unanswered)/sent" (Stat.failed_frac t = 0.5);
  check "ok_frac complements failed_frac" (Stat.ok_frac t = 0.5);
  (* a fast rejection or wrong answer still misses the limit *)
  check "slo_frac counts only correct replies within the limit" (Stat.slo_frac t = 3.0 /. 8.0);
  check "resolved_frac is over query replies" (Stat.resolved_frac t = 2.0 /. 3.0);
  check "first failure is kept" (t.Stat.first_failure = Some "wrong answer: x")

let zero = { P.Svc_span.bd_queue_wait_us = 0.0; bd_batch_wait_us = 0.0; bd_solve_us = 0.0; bd_respond_us = 0.0 }

let answer pag v objects =
  Proto.response_to_string
    (Proto.Answer
       { id = 1; var = P.Pag.var_name pag v; objects; cached = false; steps = 1; latency_us = 1.0; breakdown = zero })

let timeout () =
  Proto.response_to_string
    (Proto.Timeout { id = 1; reason = `Budget; cached = false; latency_us = 1.0; breakdown = zero })

let fate pag reference kind line = fst (Check.judge_reply pag reference kind line)

let reference_checker () =
  let suite = Option.get (P.Suite.build_by_name "_200_check") in
  let pag = suite.P.Suite.pag in
  let reference, _ = Check.seq_reference suite in
  let resolved =
    Array.to_list suite.P.Suite.queries
    |> List.find_map (fun v ->
           match reference.(v) with Some (Check.Objs (_ :: _ as os)) -> Some (v, os) | _ -> None)
  in
  (match resolved with
  | None -> check "a resolvable query exists" false
  | Some (v, os) ->
      check "the reference answer passes" (fate pag reference (Check.Plain v) (answer pag v os) = Stat.Resolved);
      check "a dropped object is caught"
        (match fate pag reference (Check.Plain v) (answer pag v (List.tl os)) with Stat.Wrong _ -> true | _ -> false);
      check "an extra object is caught"
        (match fate pag reference (Check.Plain v) (answer pag v (os @ [ "bogus" ])) with
        | Stat.Wrong _ -> true
        | _ -> false);
      check "another variable's answer is caught"
        (match fate pag reference (Check.Plain v) (answer pag ((v + 1) mod P.Pag.n_vars pag) os) with
        | Stat.Wrong _ -> true
        | _ -> false);
      check "a budget exhaustion the reference lacks is caught"
        (match fate pag reference (Check.Plain v) (timeout ()) with Stat.Wrong _ -> true | _ -> false);
      check "a refined query may exhaust its budget"
        (fate pag reference (Check.Refined v) (timeout ()) = Stat.Exhausted));
  (match
     Array.to_list suite.P.Suite.queries
     |> List.find_opt (fun v -> reference.(v) = Some Check.Oob)
   with
  | Some v ->
      check "a matching budget exhaustion passes" (fate pag reference (Check.Plain v) (timeout ()) = Stat.Exhausted);
      check "an answer where the reference ran out is caught"
        (match fate pag reference (Check.Plain v) (answer pag v []) with Stat.Wrong _ -> true | _ -> false)
  | None -> ());
  (* witness chains, from a real in-process service *)
  let svc =
    P.Service.create
      ~config:{ P.Service.default_config with P.Service.context_sensitive = false; threads = 1 }
      ~type_level:suite.P.Suite.type_level pag
  in
  let andersen = P.Andersen.solve pag in
  let explain v o =
    let got = ref None in
    P.Service.submit svc ~now:0.0
      ~respond:(fun r -> got := Some r)
      (Proto.Explain { id = 1; var = Printf.sprintf "#%d" v; obj = Printf.sprintf "#%d" o });
    !got
  in
  (* prefer a chain through the heap, so load/store pairing is exercised *)
  let chains =
    Array.to_list suite.P.Suite.queries
    |> List.concat_map (fun v ->
           match P.Andersen.points_to_list andersen v with o :: _ -> [ (v, o) ] | [] -> [])
    |> List.filter_map (fun (v, o) ->
           match explain v o with
           | Some (Proto.Explain_reply { found = true; chain = P.Json.List edges; _ } as r) ->
               Some (v, o, edges, r)
           | _ -> None)
  in
  let has_heap (_, _, edges, _) =
    List.exists (fun e -> Check.str "kind" e = Some "load") edges
  in
  (match (List.find_opt has_heap chains, chains) with
  | Some c, _ | None, c :: _ ->
      let v, o, edges, reply = c in
      let line = Proto.response_to_string reply in
      let kind = Check.Explain (v, o) in
      check "a real witness chain passes" (fate pag reference kind line = Stat.Done);
      let with_edges edges' =
        match reply with
        | Proto.Explain_reply r -> Proto.response_to_string (Proto.Explain_reply { r with chain = P.Json.List edges' })
        | _ -> line
      in
      let wrong l = match fate pag reference kind l with Stat.Wrong _ -> true | _ -> false in
      let edit f = List.mapi (fun i e -> if i = 0 then f e else e) edges in
      let set k v = function P.Json.Obj fs -> P.Json.Obj ((k, v) :: List.remove_assoc k fs) | e -> e in
      check "a truncated chain is caught" (wrong (with_edges (List.filteri (fun i _ -> i < List.length edges - 1) edges)));
      check "a shifted edge id is caught"
        (wrong
           (with_edges
              (edit (fun e ->
                   match Check.int "edge" e with
                   | Some id -> set "edge" (P.Json.Int ((id + 1) mod P.Pag.n_edges pag)) e
                   | None -> e))));
      check "a renamed endpoint is caught" (wrong (with_edges (edit (set "dst" (P.Json.String "bogus")))));
      check "a chain for another object is caught"
        (match P.Andersen.points_to_list andersen v with
        | _ :: o' :: _ when o' <> o -> wrong (Proto.response_to_string
              (match reply with Proto.Explain_reply r -> Proto.Explain_reply { r with obj = P.Pag.obj_name pag o' } | r -> r))
        | _ -> true);
      check "a chain through the heap was exercised" (has_heap c)
  | None, [] -> check "some pair is explainable" false);
  P.Service.shutdown svc

let run () =
  percentile_rule ();
  accounting ();
  reference_checker ();
  Printf.printf "%s\n%!" (if !failures = 0 then "self-test passed" else Printf.sprintf "%d self-test failure(s)" !failures);
  if !failures = 0 then 0 else 1

(* The service workload shared by the serving tests: a benchmark's
   400-query skewed mix (Suite.query_mix) driven through
   Service.submit/pump one request per pump and drained at the end, on a
   2-thread service with the paper's budget and thresholds. Every count
   it yields (answers, completions, steps, oracle hits) is deterministic:
   each pump solves the one query just admitted, so cache and jmp-store
   contents never depend on timing. *)

module P = Parcfl

let check = lazy (Option.get (P.Suite.build_by_name "_200_check"))
let mix b = P.Suite.query_mix b ~n:400

let service ?(context_sensitive = true) ?(oracle = false) b =
  let config =
    {
      P.Service.default_config with
      P.Service.threads = 2;
      max_batch = 32;
      context_sensitive;
      oracle;
      tau_f = Some P.Profile.default_tau_f;
      tau_u = Some P.Profile.default_tau_u;
      max_budget = P.Profile.default_budget;
    }
  in
  P.Service.create ~config ~type_level:b.P.Suite.type_level b.P.Suite.pag

(* Responses indexed by request id (= position in [vars]); stamps use the
   wall clock so the service's spans and the runner's solve stamps share
   a timebase. *)
let drive svc vars =
  let out = Array.make (Array.length vars) None in
  Array.iteri
    (fun i v ->
      P.Service.submit svc ~now:(Unix.gettimeofday ())
        ~respond:(fun r ->
          match P.Svc_protocol.response_id r with
          | Some id -> out.(id) <- Some r
          | None -> ())
        (P.Svc_protocol.Query
           {
             id = i;
             var = Printf.sprintf "#%d" v;
             budget = None;
             deadline_ms = None;
             trace = None;
           });
      ignore (P.Service.pump svc ~now:(Unix.gettimeofday ())))
    vars;
  P.Service.drain svc ~now:(Unix.gettimeofday ());
  Array.mapi
    (fun i r ->
      match r with
      | Some r -> r
      | None -> Alcotest.failf "request %d got no response" i)
    out

let completed responses =
  Array.fold_left
    (fun n r -> match r with P.Svc_protocol.Answer _ -> n + 1 | _ -> n)
    0 responses

let steps responses =
  Array.fold_left
    (fun n r ->
      match r with P.Svc_protocol.Answer { steps; _ } -> n + steps | _ -> n)
    0 responses

(* One integer [stats] key of a service, read the way a client reads it:
   from the [stats] payload. *)
let stat svc key =
  match P.Json.member key (P.Service.stats svc) with
  | Some (P.Json.Int n) -> n
  | _ -> Alcotest.failf "stats has no integer %s" key

(* Bench regression gate: diff a fresh bench-results document against a
   committed baseline and fail loudly when a tracked metric regressed.

     dune exec bench/regress.exe                          -- default paths
     dune exec bench/regress.exe -- --baseline B --latest L
     dune exec bench/regress.exe -- --self-test

   Entries are matched by identity key (bench/mode/threads/sim); only the
   intersection is compared, so a partial latest run — e.g. the CI
   workload, one benchmark — still gates against a full baseline.
   Per-metric rules:

     wall_seconds      ratio > 2.0 AND absolute growth > 0.05 s
                       (wall clock is the only nondeterministic metric;
                        the absolute floor keeps sub-millisecond rows from
                        tripping on scheduler noise)
     steps_walked      growth > 2% (deterministic at fixed seed)
     sim_makespan      growth > 5% (deterministic discrete-event model)
     minor_words       growth > 10% (deterministic: allocation per query
                        depends only on code paths, not timing — a jump
                        means an allocation crept back into the hot path)
     steps_per_second  drop below 1/2 of baseline, gated on BOTH walls
                        being >= 0.05 s (same noise floor as wall_seconds:
                        sub-50ms rates are dominated by fixed costs)
     completed         any drop

   Exit status: 0 no regression, 1 regression found, 2 usage or I/O error. *)

module J = Parcfl.Json

let wall_ratio = 2.0
let wall_floor_s = 0.05
let steps_tol = 0.02
let makespan_tol = 0.05
let minor_words_tol = 0.10
let sps_ratio = 2.0

(* ------------------------------------------------------------------ *)
(* Field access *)

let num field entry =
  match J.member field entry with
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

let str field entry =
  match J.member field entry with Some (J.String s) -> Some s | _ -> None

(* Identity key for matching an entry across the two documents. *)
let key entry =
  let bench = Option.value ~default:"?" (str "bench" entry) in
  let mode = Option.value ~default:"?" (str "mode" entry) in
  let threads =
    match J.member "threads" entry with
    | Some (J.Int t) -> string_of_int t
    | _ -> "?"
  in
  let sim =
    match J.member "sim" entry with
    | Some (J.Bool true) -> "sim"
    | _ -> "real"
  in
  Printf.sprintf "%s/%s/t%s/%s" bench mode threads sim

(* ------------------------------------------------------------------ *)
(* Per-entry comparison: returns human-readable failure lines. *)

let check_wall k b l acc =
  match (num "wall_seconds" b, num "wall_seconds" l) with
  | Some bw, Some lw
    when bw >= 0.0 && lw > bw *. wall_ratio && lw -. bw > wall_floor_s ->
      Printf.sprintf "%s: wall_seconds %.4f -> %.4f (> %.1fx and > +%.2fs)" k
        bw lw wall_ratio wall_floor_s
      :: acc
  | _ -> acc

let check_growth field tol k b l acc =
  match (num field b, num field l) with
  | Some bv, Some lv when lv > (bv *. (1.0 +. tol)) +. 1e-9 ->
      Printf.sprintf "%s: %s %.0f -> %.0f (> +%.0f%%)" k field bv lv
        (tol *. 100.0)
      :: acc
  | _ -> acc

let check_sps k b l acc =
  match
    (num "steps_per_second" b, num "steps_per_second" l,
     num "wall_seconds" b, num "wall_seconds" l)
  with
  | Some bs, Some ls, Some bw, Some lw
    when bw >= wall_floor_s && lw >= wall_floor_s && ls *. sps_ratio < bs ->
      Printf.sprintf "%s: steps_per_second %.0f -> %.0f (< 1/%.1fx)" k bs ls
        sps_ratio
      :: acc
  | _ -> acc

let check_no_drop field k b l acc =
  match (num field b, num field l) with
  | Some bv, Some lv when lv < bv ->
      Printf.sprintf "%s: %s dropped %.0f -> %.0f" k field bv lv :: acc
  | _ -> acc

let check_entry k baseline latest =
  []
  |> check_wall k baseline latest
  |> check_growth "steps_walked" steps_tol k baseline latest
  |> check_growth "sim_makespan" makespan_tol k baseline latest
  |> check_growth "minor_words" minor_words_tol k baseline latest
  |> check_sps k baseline latest
  |> check_no_drop "completed" k baseline latest
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Document comparison *)

let entries doc =
  match J.member "entries" doc with
  | Some (J.List es) -> Ok es
  | _ -> Error "document has no \"entries\" list"

type outcome = { compared : int; skipped : int; failures : string list }

let compare_docs ~baseline ~latest =
  match (entries baseline, entries latest) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("latest: " ^ e)
  | Ok base_entries, Ok latest_entries ->
      let by_key = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace by_key (key e) e) latest_entries;
      let compared = ref 0 and skipped = ref 0 and failures = ref [] in
      List.iter
        (fun b ->
          let k = key b in
          match Hashtbl.find_opt by_key k with
          | None -> incr skipped
          | Some l ->
              incr compared;
              failures := !failures @ check_entry k b l)
        base_entries;
      if !compared = 0 then
        Error "no comparable entries (baseline and latest do not overlap)"
      else
        Ok { compared = !compared; skipped = !skipped; failures = !failures }

(* ------------------------------------------------------------------ *)
(* I/O *)

let read_doc path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | text -> (
      match J.of_string text with
      | Ok doc -> Ok doc
      | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e))

(* ------------------------------------------------------------------ *)
(* Self-test: the gate must fire on doctored regressions and stay quiet on
   noise below the tolerances. Synthetic documents only — no files read. *)

let self_test () =
  let entry ~bench ~mode ~threads ~sim ~wall ~steps ~completed ?makespan
      ?minor_words ?sps () =
    J.Obj
      ([
         ("bench", J.String bench);
         ("mode", J.String mode);
         ("threads", J.Int threads);
         ("sim", J.Bool sim);
         ("wall_seconds", J.Float wall);
         ("steps_walked", J.Int steps);
         ("completed", J.Int completed);
         ( "sim_makespan",
           match makespan with Some m -> J.Int m | None -> J.Null );
       ]
      @ (match minor_words with
        | Some m -> [ ("minor_words", J.Int m) ]
        | None -> [])
      @
      match sps with
      | Some s -> [ ("steps_per_second", J.Float s) ]
      | None -> [])
  in
  let doc es = J.Obj [ ("schema", J.Int 1); ("entries", J.List es) ] in
  let base =
    doc
      [
        entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:1.0
          ~steps:1000 ~completed:100 ();
        entry ~bench:"b" ~mode:"dq" ~threads:16 ~sim:true ~wall:0.001
          ~steps:800 ~completed:100 ~makespan:500 ();
        entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:1.0
          ~steps:1000 ~completed:100 ~minor_words:10000 ~sps:1000.0 ();
      ]
  in
  let expect name doc' want =
    match compare_docs ~baseline:base ~latest:doc' with
    | Error e ->
        Printf.printf "self-test %s: unexpected error: %s\n" name e;
        false
    | Ok { failures; _ } ->
        let got = List.length failures in
        if got <> want then (
          Printf.printf "self-test %s: expected %d failure(s), got %d\n" name
            want got;
          List.iter (fun f -> Printf.printf "  %s\n" f) failures;
          false)
        else true
  in
  let ok = ref true in
  let run name doc' want = if not (expect name doc' want) then ok := false in
  run "identical" base 0;
  run "wall-regression"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:3.0
           ~steps:1000 ~completed:100 ();
       ])
    1;
  (* 3x slower but the absolute growth is microseconds: noise, not a
     regression. *)
  run "wall-noise-below-floor"
    (doc
       [
         entry ~bench:"b" ~mode:"dq" ~threads:16 ~sim:true ~wall:0.003
           ~steps:800 ~completed:100 ~makespan:500 ();
       ])
    0;
  run "steps-regression"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:1.0
           ~steps:1050 ~completed:100 ();
       ])
    1;
  run "steps-improvement"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:1.0
           ~steps:900 ~completed:100 ();
       ])
    0;
  run "makespan-regression"
    (doc
       [
         entry ~bench:"b" ~mode:"dq" ~threads:16 ~sim:true ~wall:0.001
           ~steps:800 ~completed:100 ~makespan:600 ();
       ])
    1;
  run "completed-drop"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:1.0
           ~steps:1000 ~completed:99 ();
       ])
    1;
  run "minor-words-regression"
    (doc
       [
         entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:1.0
           ~steps:1000 ~completed:100 ~minor_words:11001 ~sps:1000.0 ();
       ])
    1;
  (* +9% allocation and 2x faster: both inside tolerance. *)
  run "minor-words-and-sps-within-tolerance"
    (doc
       [
         entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:1.0
           ~steps:1000 ~completed:100 ~minor_words:10900 ~sps:2000.0 ();
       ])
    0;
  run "sps-drop"
    (doc
       [
         entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:1.0
           ~steps:1000 ~completed:100 ~minor_words:10000 ~sps:400.0 ();
       ])
    1;
  (* Same throughput halving, but the run finished in 10 ms: below the
     noise floor where rates are dominated by fixed costs. *)
  run "sps-drop-below-wall-floor"
    (doc
       [
         entry ~bench:"b" ~mode:"d" ~threads:8 ~sim:false ~wall:0.01
           ~steps:1000 ~completed:100 ~minor_words:10000 ~sps:400.0 ();
       ])
    0;
  run "everything-at-once"
    (doc
       [
         entry ~bench:"b" ~mode:"seq" ~threads:1 ~sim:false ~wall:9.0
           ~steps:2000 ~completed:1 ();
       ])
    3;
  (match compare_docs ~baseline:base ~latest:(doc []) with
  | Error _ -> ()
  | Ok _ ->
      Printf.printf "self-test no-overlap: expected an error\n";
      ok := false);
  if !ok then (
    Printf.printf "regress self-test OK\n";
    0)
  else 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: regress [--baseline PATH] [--latest PATH] [--self-test]\n\
     defaults: --baseline BENCH_parcfl.json --latest \
     bench/results/latest.json"

let () =
  let baseline = ref "BENCH_parcfl.json" in
  let latest = ref "bench/results/latest.json" in
  let selftest = ref false in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: p :: rest ->
        baseline := p;
        parse rest
    | "--latest" :: p :: rest ->
        latest := p;
        parse rest
    | "--self-test" :: rest ->
        selftest := true;
        parse rest
    | ("-h" | "--help") :: _ ->
        usage ();
        exit 0
    | arg :: _ ->
        Printf.eprintf "regress: unknown argument %S\n" arg;
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !selftest then exit (self_test ())
  else
    let doc_of path =
      match read_doc path with
      | Ok d -> d
      | Error e ->
          (* Sys_error and parse errors already name the path. *)
          Printf.eprintf "regress: %s\n" e;
          exit 2
    in
    let base = doc_of !baseline in
    let lat = doc_of !latest in
    match compare_docs ~baseline:base ~latest:lat with
    | Error e ->
        Printf.eprintf "regress: %s\n" e;
        exit 2
    | Ok { compared; skipped; failures } ->
        List.iter (fun f -> Printf.printf "REGRESSION %s\n" f) failures;
        Printf.printf
          "regress: %d entr%s compared (%d baseline entr%s without a match \
           skipped), %d regression(s)\n"
          compared
          (if compared = 1 then "y" else "ies")
          skipped
          (if skipped = 1 then "y" else "ies")
          (List.length failures);
        exit (if failures = [] then 0 else 1)

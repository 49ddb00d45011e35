module Pag = Parcfl_pag.Pag
module Ctx = Parcfl_pag.Ctx
module Bitset = Parcfl_prim.Bitset
module Scc = Parcfl_prim.Scc
module Query = Parcfl_cfl.Query
module Kernel = Parcfl_matrix.Kernel

type t = {
  generation : int;
  n_vars : int;
  n_objs : int;
  row_of : int array;  (* var -> distinct-row id *)
  rows : Bitset.t array;  (* one shared bitset per distinct points-to set *)
  row_pairs : (Pag.obj * Ctx.t) list array;
      (* outcome-ready (obj, empty-context) pairs, shared per row so
         answering allocates nothing beyond the outcome record *)
  build_seconds : float;
}

let generation t = t.generation
let n_vars t = t.n_vars
let n_objs t = t.n_objs
let distinct_rows t = Array.length t.rows
let build_seconds t = t.build_seconds

(* One word of bitset per 64 objects per distinct row, plus the dense
   var -> row table (boxed-free int array, one word per variable). *)
let compressed_bytes t =
  let row_words = (t.n_objs + 63) / 64 in
  (8 * t.n_vars) + (Array.length t.rows * row_words * 8)

let check_var t v =
  if v < 0 || v >= t.n_vars then
    invalid_arg (Printf.sprintf "Oracle: variable %d out of range 0..%d" v (t.n_vars - 1))

let points_to t v =
  check_var t v;
  t.rows.(t.row_of.(v))

let row t v =
  check_var t v;
  t.row_of.(v)

let points_to_list t v = Bitset.elements (points_to t v)

let may_alias t a b =
  check_var t a;
  check_var t b;
  Bitset.intersects t.rows.(t.row_of.(a)) t.rows.(t.row_of.(b))

let outcome t v =
  check_var t v;
  {
    Query.var = v;
    result = Query.Points_to t.row_pairs.(t.row_of.(v));
    steps_used = 0;
    steps_walked = 0;
    early_terminated = false;
    used_partial = false;
  }

let hash_row row =
  let h = ref 0 in
  Bitset.iter (fun x -> h := (!h * 31) + x + 1) row;
  !h land max_int

let pairs_of_row row =
  List.map (fun o -> (o, Ctx.empty)) (Bitset.elements row)

(* Shared-row construction from per-variable rows. [row_for v] may return
   the same physical bitset for different [v]; deduplication is by
   content. *)
let compress ~generation ~n_vars ~n_objs ~build_seconds ~components row_for =
  let row_of = Array.make n_vars 0 in
  let rows = ref [] in
  let n_rows = ref 0 in
  let by_hash : (int, (Bitset.t * int) list) Hashtbl.t = Hashtbl.create 256 in
  let intern row =
    let h = hash_row row in
    let bucket = try Hashtbl.find by_hash h with Not_found -> [] in
    match List.find_opt (fun (r, _) -> Bitset.equal r row) bucket with
    | Some (_, id) -> id
    | None ->
        let id = !n_rows in
        incr n_rows;
        rows := row :: !rows;
        Hashtbl.replace by_hash h ((row, id) :: bucket);
        id
  in
  Array.iter
    (fun members ->
      match members with
      | [] -> ()
      | rep :: _ ->
          (* Every member of a copy-SCC shares the representative's set:
             dst ⊇ src around the cycle forces equality. The differential
             tests hold this against Andersen on every variable. *)
          let id = intern (row_for rep) in
          List.iter (fun v -> row_of.(v) <- id) members)
    components;
  let rows = Array.of_list (List.rev !rows) in
  {
    generation;
    n_vars;
    n_objs;
    row_of;
    rows;
    row_pairs = Array.map pairs_of_row rows;
    build_seconds;
  }

let build ~generation pag =
  let t0 = Unix.gettimeofday () in
  let kernel = Kernel.solve pag in
  let t =
    compress ~generation ~n_vars:(Pag.n_vars pag) ~n_objs:(Pag.n_objs pag)
      ~build_seconds:0.0
      ~components:(Kernel.components kernel).Scc.members
      (Kernel.points_to kernel)
  in
  { t with build_seconds = Unix.gettimeofday () -. t0 }

(* ------------------------------------------------------------------ *)
(* Snapshots: a line-oriented text format.

     oraclesnap 1 <generation> <n_vars> <n_objs> <n_rows>
     <n_rows lines: the distinct rows' object ids, ascending>
     <one line: n_vars row ids, var order>

   Import accepts exactly what [export] writes: canonical decimals, single
   spaces, strictly ascending rows and one trailing newline. So an
   accepted text re-exports byte-identically, and the shape is checked
   against the serving PAG before any row is allocated. *)

let export t =
  let buf = Buffer.create (4096 + (t.n_vars * 3)) in
  Buffer.add_string buf
    (Printf.sprintf "oraclesnap 1 %d %d %d %d\n" t.generation t.n_vars
       t.n_objs (Array.length t.rows));
  Array.iter
    (fun row ->
      List.iteri
        (fun i o ->
          if i > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int o))
        (Bitset.elements row);
      Buffer.add_char buf '\n')
    t.rows;
  Array.iteri
    (fun v id ->
      if v > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int id))
    t.row_of;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* A line of single-space-separated canonical decimals; "" is empty. *)
let ints line =
  if line = "" then Some []
  else
    let toks = String.split_on_char ' ' line in
    let nums =
      List.filter_map
        (fun s ->
          match int_of_string_opt s with
          | Some x when string_of_int x = s -> Some x
          | _ -> None)
        toks
    in
    if List.compare_lengths nums toks = 0 then Some nums else None

let rec ascending = function
  | a :: (b :: _ as rest) -> a < b && ascending rest
  | _ -> true

let import ~generation pag text =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let n_vars = Pag.n_vars pag and n_objs = Pag.n_objs pag in
  let magic = "oraclesnap 1 " in
  match String.split_on_char '\n' text with
  | header :: body when String.starts_with ~prefix:magic header -> (
      let m = String.length magic in
      match ints (String.sub header m (String.length header - m)) with
      | Some [ g; nv; no; n_rows ] ->
          if g <> generation then
            err "oracle snapshot is generation %d, engine is %d" g generation
          else if nv <> n_vars || no <> n_objs then
            err
              "oracle snapshot is for a PAG of %d vars / %d objs, this PAG \
               has %d vars / %d objs"
              nv no n_vars n_objs
          else if n_rows < 0 || List.length body <> n_rows + 2 then
            err "oracle snapshot has %d line(s) after its header, need %d rows + 2"
              (List.length body) n_rows
          else begin
            let rows = Array.make n_rows (Bitset.create ()) in
            let rec read i = function
              | [ map; "" ] when i = n_rows -> (
                  match ints map with
                  | Some ids
                    when List.length ids = n_vars
                         && List.for_all (fun r -> r >= 0 && r < n_rows) ids
                    ->
                      Ok
                        {
                          generation;
                          n_vars;
                          n_objs;
                          row_of = Array.of_list ids;
                          rows;
                          row_pairs = Array.map pairs_of_row rows;
                          build_seconds = 0.0;
                        }
                  | _ -> err "oracle snapshot row map is malformed")
              | line :: rest when i < n_rows -> (
                  match ints line with
                  | Some ids
                    when ascending ids
                         && List.for_all (fun o -> o >= 0 && o < n_objs) ids ->
                      rows.(i) <- Bitset.of_list ids;
                      read (i + 1) rest
                  | _ -> err "oracle snapshot row %d is malformed" i)
              | _ -> err "oracle snapshot lacks its trailing newline"
            in
            read 0 body
          end
      | _ -> err "oracle snapshot header is malformed")
  | _ -> err "not an oracle snapshot (bad header)"

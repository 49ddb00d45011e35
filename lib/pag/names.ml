type table = { kind : string; count : int; first : (string, int) Hashtbl.t }
type t = { vars : table; objs : table }

let table kind count name =
  let first = Hashtbl.create 1024 in
  (* Descending, so the lowest id bearing a name binds last and wins. *)
  for i = count - 1 downto 0 do
    Hashtbl.replace first (name i) i
  done;
  { kind; count; first }

let of_pag pag =
  {
    vars = table "variable" (Pag.n_vars pag) (Pag.var_name pag);
    objs = table "object" (Pag.n_objs pag) (Pag.obj_name pag);
  }

let resolve tb s =
  let len = String.length s in
  if len > 1 && s.[0] = '#' then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some i when i >= 0 && i < tb.count -> Ok i
    | Some i ->
        Error
          (Printf.sprintf "%s id %d out of range (0..%d)" tb.kind i
             (tb.count - 1))
    | None -> Error (Printf.sprintf "malformed %s id %S" tb.kind s)
  else
    match Hashtbl.find_opt tb.first s with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "unknown %s %S" tb.kind s)

let var t s = resolve t.vars s
let obj t s = resolve t.objs s

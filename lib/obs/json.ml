type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------ printing ------------------------------ *)

(* Runs of bytes that need no escaping are blitted whole, so a plain
   name costs one scan and one copy. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf
        (match c with
        | '"' -> "\\\""
        | '\\' -> "\\\\"
        | '\n' -> "\\n"
        | '\r' -> "\\r"
        | '\t' -> "\\t"
        | '\b' -> "\\b"
        | '\012' -> "\\f"
        | c -> Printf.sprintf "\\u%04x" (Char.code c));
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* Zero, the value of most reply stages, skips the printf. *)
let float_token f =
  if f = 0.0 && not (Float.sign_bit f) then "0.0"
  else if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    "null"
  else
    let s = Printf.sprintf "%.12g" f in
    (* Keep a float-shaped token so the value round-trips as [Float]. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_token f)
  | String s -> escape_into buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------ parsing ------------------------------ *)

exception Parse_error of string

let utf8_add buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    match v with
    | Some v ->
        pos := !pos + 4;
        v
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents buf
        | '\\' ->
            incr pos;
            if !pos >= n then fail "truncated escape";
            (match s.[!pos] with
            | '"' ->
                Buffer.add_char buf '"';
                incr pos
            | '\\' ->
                Buffer.add_char buf '\\';
                incr pos
            | '/' ->
                Buffer.add_char buf '/';
                incr pos
            | 'b' ->
                Buffer.add_char buf '\b';
                incr pos
            | 'f' ->
                Buffer.add_char buf '\012';
                incr pos
            | 'n' ->
                Buffer.add_char buf '\n';
                incr pos
            | 'r' ->
                Buffer.add_char buf '\r';
                incr pos
            | 't' ->
                Buffer.add_char buf '\t';
                incr pos
            | 'u' ->
                incr pos;
                utf8_add buf (hex4 ())
            | _ -> fail "unknown escape");
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        parse_obj ()
    | Some '[' ->
        incr pos;
        parse_list ()
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "unexpected input"
  and parse_obj () =
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else
      let rec members acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
        | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
  and parse_list () =
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      List []
    end
    else
      let rec elems acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            elems (v :: acc)
        | Some ']' ->
            incr pos;
            List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elems []
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------ helpers ------------------------------ *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file ~path v =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

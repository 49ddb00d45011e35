module Transport = Parcfl_svc.Transport
module Proto = Parcfl_svc.Protocol

let save_file ~path text =
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text);
    Unix.rename tmp path
  with
  | () -> Ok ()
  | exception (Sys_error e | Unix.Unix_error (_, _, e)) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (Printf.sprintf "snapshot save %s: %s" path e)

let load_file ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error e -> Error (Printf.sprintf "snapshot load: %s" e)
  | exception End_of_file ->
      Error (Printf.sprintf "snapshot load %s: truncated read" path)

let wait_for_file ?(timeout_s = 30.0) ~path () =
  match
    Transport.poll ~timeout_s (fun () ->
        if Sys.file_exists path then Some (load_file ~path) else None)
  with
  | Some r -> r
  | None ->
      Error
        (Printf.sprintf "snapshot %s did not appear within %.1fs" path
           timeout_s)

(* One snapshot round trip on a fresh connection: send the verb, read the
   single JSON reply line (the multi-line body travels inside it as a JSON
   string). *)
let fetch ~connect () =
  match connect () with
  | exception (Unix.Unix_error (_, _, _) | Sys_error _) ->
      Error "snapshot fetch: connect failed"
  | fd -> (
      let conn = Transport.create ~max_line:max_int fd in
      Transport.send conn "snapshot 0\n";
      let reply = ref None in
      while !reply = None && Transport.readable conn do
        Transport.read conn ~on_overflow:ignore ~on_line:(fun l ->
            if !reply = None then reply := Some l)
      done;
      Transport.close conn;
      match Option.map Proto.response_of_string !reply with
      | None -> Error "snapshot fetch: connection closed before reply"
      | Some (Ok (Proto.Snapshot_reply { generation; records; body; _ })) ->
          Ok (generation, records, body)
      | Some (Ok (Proto.Error { reason; _ })) ->
          Error (Printf.sprintf "snapshot fetch: peer said %s" reason)
      | Some (Ok _) -> Error "snapshot fetch: unexpected reply"
      | Some (Error e) ->
          Error (Printf.sprintf "snapshot fetch: bad reply: %s" e))

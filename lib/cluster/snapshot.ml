module Transport = Parcfl_svc.Transport

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

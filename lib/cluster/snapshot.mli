(** Moving [jmpsnap] snapshots between replicas.

    The snapshot itself — a generation-tagged, Finished-only dump of the
    jmp store — is produced and consumed by
    {!Parcfl_sharing.Jmp_store.export_finished} /
    [import_finished]; this module only transports it: atomically through
    the filesystem (a warm replica writes, a joining replica waits and
    reads) or over the wire with the [snapshot] protocol verb. The
    generation-stability rule lives at import: a snapshot whose generation
    differs from the importing engine's is rejected before any record is
    touched, so a replica that reloaded its PAG can never be warmed with
    stale facts. *)

val save_file : path:string -> string -> (unit, string) result
(** Write-to-temp then rename, so a concurrently-waiting reader never
    observes a half-written snapshot. *)

val load_file : path:string -> (string, string) result

val wait_for_file :
  ?timeout_s:float -> path:string -> unit -> (string, string) result
(** Poll until [path] exists (then load it) or [timeout_s] (default 30 s)
    elapses — how a joining replica waits for the warm peer's export.
    Polls back off from 1 ms to 50 ms ({!Parcfl_svc.Transport.poll}). *)

val fetch :
  connect:(unit -> Unix.file_descr) ->
  unit ->
  (int * int * string, string) result
(** One [snapshot] verb round trip on a fresh connection:
    [(generation, records, body)]. *)

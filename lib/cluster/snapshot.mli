(** Moving [oraclesnap] snapshots between replicas.

    The snapshot itself — the oracle tier's generation-tagged compressed
    rows — is produced and consumed by {!Parcfl_oracle.Oracle.export} /
    [import]; this module only transports it, atomically through the
    filesystem: a warm replica writes, a joining replica waits and reads.
    The validity rule lives at import: a snapshot whose generation or
    graph shape differs from the importing engine's is rejected before
    any row is built, so a replica can never be warmed with another PAG's
    answers. *)

val save_file : path:string -> string -> (unit, string) result
(** Write-to-temp then rename, so a concurrently-waiting reader never
    observes a half-written snapshot. *)

val load_file : path:string -> (string, string) result

val wait_for_file :
  ?timeout_s:float -> path:string -> unit -> (string, string) result
(** Poll until [path] exists (then load it) or [timeout_s] (default 30 s)
    elapses — how a joining replica waits for the warm peer's export.
    Polls back off from 1 ms to 5 ms ({!Parcfl_svc.Transport.poll}),
    so a joiner starts at most ~5 ms after the file is complete. *)

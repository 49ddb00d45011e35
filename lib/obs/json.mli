(** A minimal JSON value type with a printer and parser.

    Just enough JSON for the observability layer — the Chrome trace-event
    exporter ({!Tracer}) and the bench-results emitter ({!Bench_json}) —
    without pulling an external dependency into the build. The printer
    always emits valid JSON (NaN/infinite floats become [null]); the parser
    accepts anything the printer emits plus ordinary interchange JSON
    (escapes, [\uXXXX], nested containers). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. Floats keep 12 significant digits and
    always carry a ['.'] or exponent so they re-parse as [Float]. *)

val write : Buffer.t -> t -> unit
(** [to_string], appended to a buffer. *)

val escape_into : Buffer.t -> string -> unit
(** Append a string as a quoted JSON string token, escaped exactly as
    {!to_string} escapes it. *)

val float_token : float -> string
(** A float as {!to_string} spells it ([null] when not finite). *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing garbage is an
    error). Numbers without ['.'] or exponent parse as [Int]. *)

val member : string -> t -> t option
(** First binding of a key in an [Obj]; [None] otherwise. *)

val write_file : path:string -> t -> unit
(** Serialise to [path], creating parent directories as needed. *)

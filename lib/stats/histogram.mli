(** ASCII histograms (Fig. 7-style: Finished counts above the axis,
    Unfinished below, buckets by powers of two). *)

val render :
  Format.formatter ->
  bucket_label:(int -> string) ->
  series:(string * int array) list ->
  unit
(** All series must share the same bucket count. Each row prints the bucket
    label, the counts, and a proportional bar for the first series. *)

val log2_label : int -> string
(** ["2^i"]. *)

val bucket : buckets:int -> int -> int
(** The log2 bucket of a value: [bucket ~buckets v = i] iff
    [2^i <= max 1 v < 2^(i+1)], with the last bucket absorbing overflow. *)

val observe : int array -> int -> unit
(** Count one value in its {!bucket} of [h] (the array's length is the
    bucket count). *)

val of_values : buckets:int -> int array -> int array
(** Bucket every value; the result sums to [Array.length values]. *)

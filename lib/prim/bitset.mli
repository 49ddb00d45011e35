(** Growable bitsets over non-negative integers.

    Used as the points-to set representation in the Andersen baseline and
    as visited-sets in graph traversals. The set grows automatically when a
    member beyond the current capacity is added. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] is an empty set sized for members [< capacity]. *)

val mem : t -> int -> bool

val add : t -> int -> bool
(** [add t i] adds [i]; returns [true] iff [i] was not already present. *)

val remove : t -> int -> unit

val union_into : dst:t -> src:t -> bool
(** [union_into ~dst ~src] adds all of [src] to [dst]; returns [true] iff
    [dst] changed. *)

val union_into_delta : dst:t -> delta:t -> src:t -> bool
(** [union_into_delta ~dst ~delta ~src] adds all of [src] to [dst] and adds
    the members that were new to [dst] ([src \ dst]) to [delta]; returns
    [true] iff [dst] changed. [delta] must be physically distinct from
    [dst] and [src]. *)

val intersects : t -> t -> bool
(** [intersects a b] is [true] iff [a] and [b] share a member. Never
    allocates; the two sets' capacities need not match. *)

val capacity : t -> int
(** Current capacity in bits (implementation detail, exposed for
    diagnostics). *)

val cardinal : t -> int

val is_empty : t -> bool

val clear : t -> unit

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** Ascending order. *)

val copy : t -> t

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] iff every member of [a] is in [b]. *)

val of_list : int list -> t

val pp : Format.formatter -> t -> unit

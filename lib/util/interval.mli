(** Half-open integer intervals [lo, hi), used for FB address ranges and
    DMA-channel busy windows. *)

type t = private { lo : int; hi : int }

val make : lo:int -> hi:int -> t
(** [make ~lo ~hi] builds the interval [lo, hi).
    @raise Invalid_argument if [hi < lo]. *)

val length : t -> int
val is_empty : t -> bool
val contains : t -> int -> bool
val overlaps : t -> t -> bool
(** [overlaps a b] is true when the two half-open intervals share a point. *)

val adjacent : t -> t -> bool
(** [adjacent a b] is true when [a] ends exactly where [b] starts or vice
    versa. *)

val merge : t -> t -> t
(** [merge a b] is the smallest interval covering both.
    @raise Invalid_argument if they neither overlap nor are adjacent. *)

val compare_lo : t -> t -> int
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

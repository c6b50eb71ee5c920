(** Extra list combinators used across the scheduler libraries. *)

val sum : int list -> int
(** [sum l] is the sum of the integers of [l]. *)

val sum_by : ('a -> int) -> 'a list -> int
(** [sum_by f l] is [sum (map f l)] without the intermediate list. *)

val max_by : ('a -> int) -> 'a list -> int
(** [max_by f l] is the maximum of [f x] over [l], or [0] for the empty
    list (all quantities in this code base are non-negative sizes). *)

val take : int -> 'a list -> 'a list
(** [take n l] is the first [n] elements of [l] (all of [l] if shorter). *)

val drop : int -> 'a list -> 'a list
(** [drop n l] is [l] without its first [n] elements. *)

val last : 'a list -> 'a option
(** [last l] is the last element of [l], if any. *)

val index_of : ('a -> bool) -> 'a list -> int option
(** [index_of p l] is the index of the first element satisfying [p]. *)

val uniq : ('a -> 'a -> bool) -> 'a list -> 'a list
(** [uniq eq l] removes duplicates (w.r.t. [eq]) keeping first occurrences. *)

val compositions : int -> int list list
(** [compositions n] enumerates every way to write [n] as an ordered sum of
    positive integers, e.g. [compositions 3 = [[1;1;1];[1;2];[2;1];[3]]].
    Used by the kernel scheduler to enumerate cluster partitions. *)

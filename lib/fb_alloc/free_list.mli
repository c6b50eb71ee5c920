(** The FB_list of the paper's allocation algorithm: a linear list of all
    free blocks of one frame-buffer set, kept sorted by address and
    coalesced. First-fit allocation can proceed from the *lower* end
    (final / intermediate results) or from the *upper* end (input data and
    shared results), which is how the paper keeps long-lived and short-lived
    objects apart to minimise fragmentation. *)

type t

type ends = Lower | Upper
(** Which end of the address space the first-fit scan starts from. *)

val create : int -> t
(** [create size] is a fully-free list over addresses [0, size). *)

val size : t -> int
val free_words : t -> int
val largest_free : t -> int
val blocks : t -> Msutil.Interval.t list
(** Free blocks, ascending by address, coalesced. *)

val allocate : t -> from:ends -> words:int -> Msutil.Interval.t option
(** Contiguous first-fit: the first (from the chosen end) free block large
    enough; carves the allocation from that end of the block. [None] when no
    single block fits. *)

val allocate_at : t -> Msutil.Interval.t -> bool
(** [allocate_at t iv] carves exactly [iv] if it is entirely free — used to
    re-place an object at its previous iteration's address to keep the
    layout regular. Returns false (and changes nothing) otherwise. *)

val allocate_split : t -> from:ends -> words:int -> Msutil.Interval.t list option
(** Splitting allocation: greedily takes whole free blocks from the chosen
    end until [words] are covered; the object ends up in several parts
    (complex access, the paper's last resort). [None] when total free space
    is insufficient. The returned list is ordered by scan direction. *)

val release : t -> Msutil.Interval.t -> unit
(** Returns an interval to the free list, coalescing with neighbours.
    @raise Invalid_argument if any part of it is already free. *)

val is_free : t -> Msutil.Interval.t -> bool
val invariant_ok : t -> bool
(** Sorted, disjoint, non-adjacent (coalesced), in-bounds — checked by the
    property tests. *)

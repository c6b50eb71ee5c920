(** Placement bookkeeping for one frame-buffer set.

    A [Layout.t] couples a {!Free_list} with the table of currently-placed
    objects, remembers where each object was placed on previous iterations
    (so the allocator can keep placements *regular* — same address every
    iteration, paper §5), and counts splits for the fragmentation report.
    It can render Figure 5-style occupancy snapshots. *)

type t

type placement = { label : string; intervals : Msutil.Interval.t list }

val create : size:int -> t
val size : t -> int
val free_words : t -> int
val largest_free : t -> int

val place :
  t -> label:string -> words:int -> from:Free_list.ends -> placement option
(** Places an object using the paper's policy:
    1. try the address the same-named object had last time it was placed
       (regularity across iterations);
    2. else contiguous first-fit from the chosen end;
    3. else split across several free blocks (counted in {!splits}).
    [None] if even splitting cannot satisfy the request.
    @raise Invalid_argument if [label] is already placed. *)

val release : t -> label:string -> unit
(** Frees the object's intervals.
    @raise Invalid_argument naming the label if it is not placed. *)

val placed : t -> label:string -> bool

val placement_of_opt : t -> label:string -> placement option

val placements : t -> placement list
(** Sorted by first interval address. *)

val splits : t -> int
(** Number of placements so far that had to be split into several parts. *)

val placements_done : t -> int
(** Total number of successful placements so far. *)

val snapshot : t -> string option array
(** Word-by-word occupancy (index 0 = lowest address). *)

val render_snapshots : labels:string list -> string option array list -> string
(** ASCII rendering of a sequence of snapshots as columns (the layout of
    paper Figure 5): each row is one FB address region, each column one
    moment in time, 8 characters wide. [labels] captions the columns. *)

val invariant_ok : t -> bool
(** Free list healthy, no two placed objects overlapping, placements and
    free list partition the address space. *)

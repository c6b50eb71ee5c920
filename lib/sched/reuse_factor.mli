(** The Context Reuse Factor RF (paper §3): the number of consecutive
    iterations every kernel executes before handing the array to the next
    kernel (loop fission). The FB must hold the data of RF iterations of
    every cluster of its set, so RF is bounded by the frame-buffer set size;
    contexts are then loaded [ceil (n / RF)] times instead of [n]. *)

val common :
  fb_set_size:int -> footprints:int list -> iterations:int -> int
(** The paper's "highest common RF value, to all clusters, allowed by the
    internal memory size": the minimum over the clusters of the largest
    [rf] with [rf * footprint <= fb_set_size], clamped to the
    application's iteration count; 0 when even one iteration of some
    cluster does not fit.
    @raise Invalid_argument on an empty footprint list. *)

val common_split :
  fb_set_size:int -> footprints:(int * int) list -> iterations:int -> int
(** Like {!common} for [(per_iteration, constant)] footprints
    ({!Ds_formula.split}): the largest [rf] with
    [rf * per_iteration + constant <= fb_set_size] for every cluster. *)

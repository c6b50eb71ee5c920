(** The data and results allocation algorithm of paper §5 (Figure 4).

    Simulates one round (RF consecutive iterations) of the clustered
    application at placement granularity, driving one {!Fb_alloc.Layout} per
    frame-buffer set with the paper's policy:

    - shared data retained for later clusters is placed first, longest
      window first, by first-fit from the *upper* addresses;
    - then each cluster's own input data, inputs of later kernels first,
      also from the upper addresses (they live longest);
    - as kernels execute (kernel-major order — each kernel runs its RF
      iterations consecutively, per loop fission), retained shared results
      go to the upper region, while final and intermediate results are
      placed from the *lower* addresses;
    - [release] returns the space of data and results that no later kernel
      or retained window needs, so new results replace dead objects;
    - placement is *regular*: an object instance re-placed on a later
      iteration reuses its previous address when free, and objects are only
      split across free blocks as a last resort.

    The run records Figure 5-style occupancy snapshots and the allocator
    quality statistics the paper reports (no split needed on any evaluated
    application, minimal memory). *)

type snapshot = { caption : string; cells : string option array }

type result = {
  snapshots : snapshot list;
  stats : (Morphosys.Frame_buffer.set * Fb_alloc.Frag_stats.t) list;
      (** end-of-round allocator statistics per set *)
  splits : int;  (** placements that had to be split across free blocks *)
  peak_words : (int * int) list;
      (** per cluster id: peak words in use in its set during its run *)
  failures : string list;  (** objects that could not be placed at all *)
}

val run :
  ?capture:(cluster_id:int -> bool) ->
  Morphosys.Config.t ->
  analysis:Kernel_ir.Analysis.t ->
  rf:int ->
  retention:Retention.decision ->
  round:int ->
  result
(** [capture] selects the clusters whose snapshots are recorded (default:
    all). [analysis] is the application and clustering to allocate, with
    their cluster profiles.
    @raise Invalid_argument if [rf < 1] or [round < 0]. *)

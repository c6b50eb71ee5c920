(** Clusters: consecutive kernel runs assigned to alternating frame-buffer
    sets (paper §2). While one cluster computes out of its set, the DMA
    prepares the other set for the next cluster. *)

type t = {
  id : int;  (** position in cluster execution order (0-based) *)
  kernels : Kernel.id list;  (** consecutive, ascending *)
  fb_set : Morphosys.Frame_buffer.set;
}

type clustering = t list

val of_partition : Application.t -> int list -> clustering
(** [of_partition app sizes] splits the kernel sequence into consecutive
    clusters of the given sizes; cluster 0 gets set A, cluster 1 set B,
    alternating (the hardware double-buffering discipline).
    @raise Invalid_argument with the first diagnostic of
    {!check_partition}. *)

val check_partition : n_kernels:int -> int list -> Diag.t list
(** Every violation of a cluster-size partition, as [Invalid_clustering]
    diagnostics: positive sizes summing to [n_kernels]. [[]] exactly when
    {!of_partition} accepts the sizes. *)

val singleton_per_kernel : Application.t -> clustering
(** One cluster per kernel — the Basic Scheduler's degenerate clustering. *)

val whole_application : Application.t -> clustering
(** A single cluster holding every kernel. *)

val check : Application.t -> clustering -> Diag.t list
(** Every violation of a built clustering, as [Invalid_clustering]
    diagnostics: the clusters cover the kernel sequence [0 .. n-1] in
    order (so every kernel is in exactly one cluster), ids are the
    positions [0 .. len-1], and FB sets alternate. *)

val cluster_of_kernel : clustering -> Kernel.id -> t
(** @raise Invalid_argument naming the kernel id if it is in no
    cluster. *)

val find : clustering -> int -> t
(** Cluster by id. @raise Invalid_argument naming the id. *)

val n_clusters : clustering -> int
val partition_sizes : clustering -> int list
val pp_clustering : Format.formatter -> clustering -> unit

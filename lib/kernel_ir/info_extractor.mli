(** The information extractor of the compilation framework (paper Fig. 2):
    derives from an application and a clustering everything the schedulers
    need — per-kernel data classification (the paper's [d_j], [rout_j],
    [r_jt]), per-cluster footprint inputs, and the inter-cluster sharing
    sets ([D_i..j], [R_i,j..k]). *)

(** Classification of one kernel's data traffic inside its cluster. *)
type kernel_profile = {
  kernel : Kernel.id;
  d_objects : Data.t list;
      (** cluster inputs (produced outside the cluster) whose *last*
          in-cluster consumer is this kernel — the paper's [d_j] ("input
          data for kernel kj except those shared with kernels executed
          later") *)
  rout_objects : Data.t list;
      (** results of this kernel that outlive the cluster (used by later
          clusters or final) — the paper's [rout_j] *)
  intermediate_objects : (Data.t * Kernel.id) list;
      (** results of this kernel consumed only inside the cluster, paired
          with their last in-cluster consumer [t] — the paper's [r_jt] *)
}

type cluster_profile = {
  cluster : Cluster.t;
  kernel_profiles : kernel_profile list;  (** in kernel order *)
  external_inputs : Data.t list;
      (** every object consumed in the cluster but produced outside it
          (external memory or an earlier cluster) *)
  outliving : Data.t list;
      (** every object produced in the cluster that must survive it *)
  contexts : int;  (** context words of the cluster's kernels *)
  compute_cycles : int;  (** RC-array cycles for ONE iteration *)
}

val d_words : kernel_profile -> int
val rout_words : kernel_profile -> int
val intermediate_words : kernel_profile -> int

val profile :
  Application.t -> Cluster.clustering -> Cluster.t -> cluster_profile

val profiles : Application.t -> Cluster.clustering -> cluster_profile list

val last_consumer_in : Cluster.t -> Data.t -> Kernel.id option
(** Last consumer of the object among the cluster's kernels. *)

val outlives : Cluster.clustering -> Cluster.t -> Data.t -> bool
(** True when the object, produced in the cluster, is final or consumed by a
    later cluster. *)

(** {1 Inter-cluster sharing} *)

(** A retention candidate: an object used by several clusters, plus the
    clusters involved. The paper's [D_i..j] (shared data, including results
    of *earlier* clusters consumed by several later ones) and [R_i,j..k]
    (shared results). *)
type shared =
  | Shared_data of { data : Data.t; consumer_clusters : int list }
      (** external datum consumed by [consumer_clusters] (>= 2 of them) *)
  | Shared_result of {
      data : Data.t;
      producer_cluster : int;
      consumer_clusters : int list;
          (** clusters other than the producer's that consume it (>= 1) *)
    }

val shared_of_data : shared -> Data.t
val sharing : Application.t -> Cluster.clustering -> shared list
(** All sharing candidates, regardless of FB-set compatibility (the
    retention pass filters by set). *)

val pp_shared : Format.formatter -> shared -> unit

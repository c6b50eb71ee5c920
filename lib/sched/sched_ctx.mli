(** Scheduling context: a {!Kernel_ir.Analysis} context extended with the
    precomputed per-cluster DS-formula results every scheduler run needs —
    computed once per [(application, clustering)] pair and shared by the
    Basic, Data and Complete Data scheduler paths (and across design points
    of a DSE sweep, since none of it depends on the machine
    configuration). Immutable, hence safe to share across worker domains. *)

type t = {
  analysis : Kernel_ir.Analysis.t;
  splits : (int * int) array;
      (** by cluster id: {!Ds_formula.split} with no pinned objects — the
          [(per_iteration, constant)] pair the reuse-factor bound uses *)
  footprints : int array;
      (** by cluster id: {!Ds_formula.closed_form}, no pinned objects *)
  basic_footprints : int array;
      (** by cluster id: {!Ds_formula.footprint_basic} (no replacement) *)
}

val make : Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering -> t
(** Builds the analysis context and the formula arrays.
    @raise Invalid_argument under the {!Kernel_ir.Analysis.make}
    condition (a clustering that fails {!Kernel_ir.Cluster.check}). *)

val analysis : t -> Kernel_ir.Analysis.t
val app : t -> Kernel_ir.Application.t
val clustering : t -> Kernel_ir.Cluster.clustering

val splits_list : t -> (int * int) list
(** Equal to [Data_scheduler.footprints_split app clustering]. *)

val footprints_list : t -> int list
val basic_footprints_list : t -> int list

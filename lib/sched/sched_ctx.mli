(** Scheduling context: a {!Kernel_ir.Analysis} context extended with the
    per-cluster DS-formula state every scheduler run needs — computed once
    per [(application, clustering)] pair and shared by the Basic, Data and
    Complete Data scheduler paths (and across design points of a DSE
    sweep, since none of it depends on the machine configuration). Plain
    immutable data, hence safe to share across worker domains. *)

type t = {
  analysis : Kernel_ir.Analysis.t;
  sweeps : Ds_formula.sweep array;
      (** by cluster id: {!Ds_formula.sweep} of its profile — the
          unpinned split and footprint, and the arrays retention pins
          into (read only) *)
  basic_footprints : int array;
      (** by cluster id: {!Ds_formula.footprint_basic} (no replacement) *)
}

val make : Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering -> t
(** Builds the analysis context and one sweep per cluster.
    @raise Invalid_argument under the {!Kernel_ir.Analysis.make}
    condition (a clustering that fails {!Kernel_ir.Cluster.check}). *)

val analysis : t -> Kernel_ir.Analysis.t
val app : t -> Kernel_ir.Application.t
val clustering : t -> Kernel_ir.Cluster.clustering

val splits_list : t -> (int * int) list
(** By cluster id, the [(per_iteration, constant)] pair of each sweep:
    equal to [Data_scheduler.footprints_split app clustering]. *)

val footprints_list : t -> int list
(** By cluster id, each sweep's [footprint] ({!Ds_formula.closed_form}
    with no pinned object). *)

val basic_footprints_list : t -> int list

(** Precomputed, immutable analysis context for one [(application,
    clustering)] pair — the indexed counterpart of {!Info_extractor}.

    The reference extractor recomputes cluster profiles from scratch with
    list scans ([List.nth], [List.mem], [Cluster.cluster_of_kernel]) every
    time a scheduler needs them, which makes a single scheduler run
    quadratic-to-cubic in application size. [Analysis.make] performs the
    same derivation once, with O(1) lookups, and the result is threaded
    through the schedulers. The profiles, sharing sets and orderings are
    {e byte-identical} to the reference implementation — a property the
    test suite checks on hundreds of random applications — so schedules
    built from a context equal the reference schedules exactly.

    The structure is immutable after construction (plain arrays and lists,
    no lazy cells or tables), so one context can be shared freely across
    engine worker domains. *)

type t = private {
  app : Application.t;
  clustering : Cluster.clustering;
  clusters : Cluster.t array;  (** indexed by cluster id *)
  kernel_cluster : int array;  (** kernel id -> cluster id *)
  profiles : Info_extractor.cluster_profile array;
      (** indexed by cluster id; equal to [Info_extractor.profiles] *)
  sharing : Info_extractor.shared list;
      (** equal to [Info_extractor.sharing] *)
  tds : int;  (** total data words ({!Time_factor} denominator) *)
}

val make : Application.t -> Cluster.clustering -> t
(** Builds the context in near-linear time.
    @raise Invalid_argument with the first diagnostic of {!Cluster.check}:
    the whole module indexes by cluster id, so a hand-built clustering
    with shifted ids fails loudly instead of reading the wrong profile. *)

val n_clusters : t -> int

val cluster : t -> int -> Cluster.t
(** By cluster id. @raise Invalid_argument on an unknown id. *)

val profile : t -> int -> Info_extractor.cluster_profile
(** By cluster id — replaces the fragile [List.nth profiles c.id].
    @raise Invalid_argument on an unknown id. *)

val profiles_list : t -> Info_extractor.cluster_profile list
(** All profiles in cluster-id order (equals [Info_extractor.profiles]). *)

val cluster_of_kernel : t -> Kernel.id -> Cluster.t
(** O(1) counterpart of [Cluster.cluster_of_kernel]. *)

val sharing : t -> Info_extractor.shared list
val tds : t -> int

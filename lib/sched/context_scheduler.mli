(** The context scheduler (substrate from Maestre et al., ISSS'99): decides
    which clusters' context sets stay resident in the context memory across
    rounds and which must be reloaded every round because the CM is too
    small to hold everything.

    Policy: clusters are pinned greedily by descending context size while
    the pinned total still leaves room for the largest pair of consecutive
    unpinned clusters (the running one and the prefetched one must coexist).
    Clusters of equal size are tried in clustering order. Pinned clusters
    transfer their contexts only on the first round.

    Cost: O(n log n) in the number of clusters [n] — a sort, then O(log n)
    per greedy step on a multiset of the rotation's neighbour-pair sums. *)

type index
(** Per-cluster context words and residency, for {!load_words_for_round}. *)

type plan = {
  pinned : int list;  (** cluster ids resident for the whole run, ascending *)
  reloaded : int list;  (** cluster ids reloaded every round, ascending *)
  reserve : int;  (** CM words kept free for unpinned rotation *)
  index : index;
}

val plan_app :
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  (plan, Diag.t) result
(** Canonical list-based planner. [Error] is a [Cm_overflow] diagnostic
    naming the first cluster, in clustering order, whose contexts exceed
    the CM capacity — no schedule can run that clustering. Cluster ids are
    expected to be distinct; the rotation follows ascending id order. *)

val plan_of_analysis :
  Morphosys.Config.t -> Kernel_ir.Analysis.t -> (plan, Diag.t) result
(** Canonical indexed planner: the per-cluster context words come from the
    analysis context's profiles instead of being re-summed from the
    application. This is the entry point the schedulers use. *)

val context_words : Kernel_ir.Application.t -> Kernel_ir.Cluster.t -> int
(** Context words of a cluster's kernels. *)

val load_words_for_round :
  plan -> app:Kernel_ir.Application.t -> cluster:Kernel_ir.Cluster.t ->
  round:int -> int
(** Context words the DMA must move for [cluster] at the given round: its
    full context set on round 0, afterwards only if it is not pinned. O(1)
    when cluster ids are 0..n-1 (a validated clustering); otherwise the
    words come from [app] and residency from [pinned]. *)

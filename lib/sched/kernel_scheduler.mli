(** The kernel scheduler (substrate from Maestre et al., ICCD'00 [7]):
    explores the space of cluster partitions of the kernel sequence and
    keeps the one minimising estimated execution time, judging each
    candidate through a tentative data/context schedule supplied by the
    caller (the paper's framework evaluates candidates the same way).

    Partitions are compositions of the kernel count into consecutive runs;
    there are [2^(n-1)] of them, so exhaustive search is used up to 14
    kernels (8192 partitions) and a hill-climbing merge/split heuristic
    beyond. *)

type evaluation = Kernel_ir.Cluster.clustering -> int option
(** Estimated total cycles of a candidate clustering; [None] = infeasible. *)

val enumerate : Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering list
(** Every partition of the kernel sequence into consecutive clusters.
    @raise Invalid_argument beyond 14 kernels. *)

val best :
  Kernel_ir.Application.t ->
  eval:evaluation ->
  (Kernel_ir.Cluster.clustering * int) option
(** The best feasible clustering and its estimated cycles ([None] when no
    clustering is feasible). Exhaustive under the limit, greedy beyond. *)

val greedy :
  Kernel_ir.Application.t ->
  eval:evaluation ->
  (Kernel_ir.Cluster.clustering * int) option
(** Hill climbing from the one-kernel-per-cluster partition: repeatedly
    merges the adjacent cluster pair that improves the estimate most, until
    no merge improves. Exposed for testing against {!best}. *)

val beam :
  ?width:int ->
  Kernel_ir.Application.t ->
  eval:evaluation ->
  (Kernel_ir.Cluster.clustering * int) option
(** Beam search over partial partitions built left to right: a prefix is
    scored by completing it with singleton clusters and evaluating; the
    [width] best prefixes (default 4) survive each extension step. Explores
    more of the space than {!greedy} at a fraction of the exhaustive cost
    (O(width x n^2) evaluations). *)

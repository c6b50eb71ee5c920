(** The Data Scheduler of Sanchez-Elez et al., ISSS'01 [5] — the paper's
    direct predecessor. It performs intra-cluster data management: dead
    inputs and dead intermediates are replaced in place by new results, so a
    cluster only needs [DS(C)] words ({!Ds_formula}); the frame-buffer slack
    is spent on loop fission — every kernel executes RF consecutive
    iterations, so contexts are loaded [ceil(n/RF)] times instead of [n].
    It does NOT minimise inter-cluster data transfers: data shared among
    clusters is reloaded by each consumer cluster and shared results travel
    through external memory.

    Its allocation algorithm (single-ended first-fit, no regularity) wastes
    part of the frame buffer to fragmentation; the paper's §5 presents the
    Complete Data Scheduler's allocator as an improvement that "reduces
    fragmentation" and thereby "allows it to increase RF". We model this as
    an {e allocation efficiency}: the Data Scheduler can only pack
    [alloc_efficiency * fb_set_size] words (default {!default_efficiency}),
    while the CDS allocator uses the whole set. *)

val default_efficiency : float
(** 0.85 — the fraction of the FB set the [5] allocator packs usefully. *)

val run_with :
  ?alloc_efficiency:float ->
  Sched_ctx.t ->
  Morphosys.Config.t ->
  (Schedule.t, Diag.t) result
(** The Data Scheduler at a given allocation efficiency. [Error] is a
    [No_feasible_rf] or [Cm_overflow] diagnostic when even RF = 1 does
    not fit (some [DS(C)] exceeds the packable fraction of the FB set) or
    the context memory cannot hold some cluster.
    @raise Invalid_argument if [alloc_efficiency] is outside (0, 1]. *)

val run : Sched_ctx.t -> Morphosys.Config.t -> (Schedule.t, Diag.t) result
(** The canonical entry point ({!Scheduler_intf.S.run}): {!run_with} at
    the default allocation efficiency. *)

val scheduler : Scheduler_intf.t
(** The Data Scheduler as a first-class value, registered in
    {!Scheduler_registry} under ["ds"]. *)

val schedule_reference :
  ?alloc_efficiency:float ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  (Schedule.t, string) result
(** The original list-based implementation, retained verbatim as the
    equivalence oracle for the indexed path (the test suite and the
    benchmark's correctness check). Produces schedules byte-identical to
    {!run_with}'s, with [Diag.to_string] errors. *)

val footprints :
  Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering -> int list
(** Per-cluster replacement footprints [DS(C)] (one iteration, invariant
    tables included). *)

val footprints_split :
  Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering -> (int * int) list
(** Per-cluster [(per_iteration, constant)] footprints
    ({!Ds_formula.split}) — the form the reuse-factor bound uses. *)

val reuse_factor :
  ?alloc_efficiency:float ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  int
(** The largest common RF the frame buffer allows the Data Scheduler
    (0 = infeasible). The scheduler then picks the {e fastest} RF up to this
    bound ({!best_by_rf}). *)

val best_by_rf :
  Morphosys.Config.t -> rf_max:int -> build:(int -> Schedule.t) -> Schedule.t
(** [best_by_rf config ~rf_max ~build] builds a schedule for every RF in
    [1..rf_max] and returns the one with the smallest estimated execution
    time ({!Schedule_cost}); ties prefer the larger RF.
    @raise Invalid_argument if [rf_max < 1]. *)

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
    an {e allocation efficiency}: the Data Scheduler can only pack 85% of
    the FB set, while the CDS allocator uses the whole set. Its RF bound is
    the largest common RF that fits the packable words; it then runs the
    fastest RF up to that bound ({!Step_builder.search}).

    It registers itself in {!Scheduler_registry} under ["ds"]. Its
    diagnostics are a [No_feasible_rf] when even RF = 1 does not fit (some
    [DS(C)] exceeds the packable fraction of the FB set) and the context
    plan's [Cm_overflow]. *)

val schedule_reference :
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  (Schedule.t, string) result
(** The original list-based implementation, retained verbatim as the
    equivalence oracle for the indexed path (the test suite and the
    benchmark's correctness check). Produces schedules byte-identical to
    the registered scheduler's, with [Diag.to_string] errors. *)

val footprints :
  Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering -> int list
(** Per-cluster replacement footprints [DS(C)] (one iteration, invariant
    tables included). *)

val footprints_split :
  Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering -> (int * int) list
(** Per-cluster [(per_iteration, constant)] footprints
    ({!Ds_formula.split}) — the form the reuse-factor bound uses. *)

(** The Basic Scheduler — the comparison baseline from Maestre et al.,
    DATE'99 [3]: kernel scheduling with double-buffered transfer overlap but
    *no data reuse*. Every cluster input is loaded from external memory for
    every iteration, every produced result — intermediates included — is
    written back (no liveness analysis), dead data is never replaced in
    place (so the whole cluster footprint — all inputs plus all results —
    must fit one FB set), and the reuse factor is fixed at 1, so contexts
    not resident in the CM are reloaded on every iteration.

    It registers itself in {!Scheduler_registry} under ["basic"]. Its
    diagnostics are an [Fb_overflow] naming the first cluster whose
    no-replacement footprint exceeds the FB set (the paper notes Basic
    cannot run MPEG with a 1K frame buffer) and the context plan's
    [Cm_overflow]. *)

val schedule_reference :
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  (Schedule.t, string) result
(** Original list-based implementation, kept as the equivalence oracle
    for the indexed path. *)

val footprints :
  Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering -> int list
(** Per-cluster no-replacement footprints (one iteration). *)

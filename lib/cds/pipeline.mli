(** End-to-end compilation pipeline: kernel scheduling (clustering search),
    the three data schedulers (Basic / DS / CDS), simulation, validation and
    allocator statistics — everything Table 1 and Figure 6 need for one
    experiment. Basic and DS are dispatched through
    {!Sched.Scheduler_registry}; CDS runs {!Complete_data_scheduler.run_full}
    for its retention decision. *)

type scheduled = { schedule : Sched.Schedule.t; metrics : Msim.Metrics.t }

type comparison = {
  app : Kernel_ir.Application.t;
  config : Morphosys.Config.t;
  clustering : Kernel_ir.Cluster.clustering;
  basic : (scheduled, string) result;
  ds : (scheduled, string) result;
  cds : (scheduled * Complete_data_scheduler.result, string) result;
}

val run :
  ?retention:bool ->
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  comparison
(** Schedules the application three ways on the given clustering, checks
    every produced schedule with {!Msim.Validate} and simulates it. An
    infeasible scheduler is that field's [Error], with the scheduler's
    diagnostic text. [retention] and [cross_set] are CDS's options
    ({!Complete_data_scheduler.run_full}).
    @raise Failure if validation finds a violation (a scheduler bug). *)

val improvement : comparison -> [ `Ds | `Cds ] -> float option
(** Relative execution improvement over the Basic Scheduler in percent
    (Figure 6); [None] when either party is infeasible. *)

val ds_rf : comparison -> int option
(** The reuse factor DS/CDS achieved (Table 1's RF column). *)

val dt_words : comparison -> int option
(** Data words avoided per iteration by CDS retention (Table 1's DT). *)

val auto_clustering :
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  (Kernel_ir.Cluster.clustering * int) option
(** Kernel-scheduler search: the clustering minimising CDS's simulated
    cycles; [None] when no partition is feasible. *)

val allocation_report :
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  (Allocation_algorithm.result, string) result
(** Runs the Figure 4 allocator for round 0 of the CDS schedule. *)

(** End-to-end compilation pipeline: kernel scheduling (clustering search),
    the three data schedulers (Basic / DS / CDS), simulation, validation and
    allocator statistics — everything Table 1 and Figure 6 need for one
    experiment. Scheduler dispatch goes through {!Sched.Scheduler_registry},
    so the degradation ladder and the clustering search accept any
    registered scheduler by name. *)

type scheduled = { schedule : Sched.Schedule.t; metrics : Msim.Metrics.t }

val default_ladder : string list
(** [["cds"; "ds"; "basic"]] — the degradation ladder, best first. *)

type degradation = {
  delivered : string option;
      (** the best ladder entry that produced a valid simulated schedule;
          [None] when every entry failed *)
  chain : (string * Diag.t) list;
      (** the failures encountered walking the ladder, in order, up to
          (excluding) the delivered entry — names come from the ladder
          (i.e. the registry), not from a hard-coded tier list *)
  fallback : scheduled option;
      (** the delivered schedule itself; carried here because a custom
          ladder may deliver a scheduler that has no column in
          {!comparison} *)
}

type comparison = {
  app : Kernel_ir.Application.t;
  config : Morphosys.Config.t;
  clustering : Kernel_ir.Cluster.clustering;
  basic : (scheduled, string) result;
  ds : (scheduled, string) result;
  cds : (scheduled * Complete_data_scheduler.result, string) result;
  degradation : degradation option;
      (** [Some] iff the comparison was produced by [run ~degrade:true] *)
}

val run :
  ?validate:bool ->
  ?retention:bool ->
  ?cross_set:bool ->
  ?degrade:bool ->
  ?ladder:string list ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  comparison
(** Schedules the application three ways on the given clustering and
    simulates each result. With [validate] (default true) every produced
    schedule is checked by {!Msim.Validate} first.

    With [degrade] (default false) the pipeline never raises: each tier's
    failure — infeasibility, validation divergence, any exception — is
    captured as a structured diagnostic, and [degradation] records the
    fallback chain down [ladder] (default {!default_ladder}) together
    with the tier that finally delivered ({!degraded_schedule}). Ladder
    entries beyond the standard three are resolved through
    {!Sched.Scheduler_registry}; unknown names fail that rung with an
    [Invalid_config] diagnostic and the walk continues. Whenever
    validation passes, [degrade] changes only [degradation]: the
    [basic] / [ds] / [cds] fields equal those of a default run.
    @raise Failure if validation finds a violation (a scheduler bug) and
    [degrade] is false. *)

val degraded_schedule : comparison -> (string * scheduled) option
(** The schedule the degradation ladder delivered — the best feasible tier
    with its registry name — or [None] when every tier failed (or [run]
    ran without [~degrade]). *)

val pp_degradation : Format.formatter -> degradation -> unit
(** Renders the chain, one ["<name> unavailable: <diag>"] line per failed
    tier, then the delivering tier. *)

val improvement : comparison -> [ `Ds | `Cds ] -> float option
(** Relative execution improvement over the Basic Scheduler in percent
    (Figure 6); [None] when either party is infeasible. *)

val ds_rf : comparison -> int option
(** The reuse factor DS/CDS achieved (Table 1's RF column). *)

val dt_words : comparison -> int option
(** Data words avoided per iteration by CDS retention (Table 1's DT). *)

val auto_clustering :
  ?scheduler:string ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  (Kernel_ir.Cluster.clustering * int) option
(** Kernel-scheduler search: the clustering minimising the named
    scheduler's simulated cycles (default ["cds"]; any
    {!Sched.Scheduler_registry} name is accepted); [None] when no
    partition is feasible — or the name is unknown. *)

val allocation_report :
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  (Allocation_algorithm.result, string) result
(** Runs the Figure 4 allocator for round 0 of the CDS schedule. *)

(** The one scheduler driver ({!search}) and the machinery it runs:
    turning per-cluster transfer lists into the pipelined step sequence
    all three schedulers (Basic, DS, CDS) emit.

    Execution order is rounds x clusters. While execution step [s] computes,
    the DMA channel (a) stores the outliving results of step [s-1], (b)
    loads the data of step [s+1] and (c) loads the contexts of step [s+1].
    A transfer may only overlap the computation if it does not touch the
    computing cluster's FB set; offending transfers are emitted in a
    standalone DMA step between the two computations (this happens at the
    round wrap-around when the cluster count is odd). *)

type generators = {
  loads :
    Kernel_ir.Cluster.t -> round:int -> iters:int -> base_iter:int ->
    Morphosys.Dma.t list;
      (** data to bring into the cluster's set before it runs (one transfer
          per object instance, labelled ["name@iter"]) *)
  stores :
    Kernel_ir.Cluster.t -> round:int -> iters:int -> base_iter:int ->
    Morphosys.Dma.t list;
      (** results to drain from the cluster's set after it runs *)
}

type selectors = {
  load_objects : Kernel_ir.Cluster.t -> round:int -> Kernel_ir.Data.t list;
      (** the objects behind [generators.loads] for that cluster/round *)
  store_objects : Kernel_ir.Cluster.t -> round:int -> Kernel_ir.Data.t list;
}
(** The object-level view behind a {!generators}: the transfer lists are
    one instance per (object, iteration) — one total for an invariant
    object — so {!estimate} can cost a schedule from the objects alone. *)

val generators_of_selectors : selectors -> generators
(** Mechanical expansion of an object selection into labelled transfer
    lists: one transfer per (object, iteration) instance, one total for an
    invariant object. *)

val build :
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  rf:int ->
  ctx_plan:Context_scheduler.plan ->
  generators:generators ->
  scheduler:string ->
  Schedule.t
(** @raise Invalid_argument if [rf < 1]. [cross_set] is recorded in the
    schedule for the validator (default false). *)

val estimate :
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  rf:int ->
  ctx_plan:Context_scheduler.plan ->
  selectors:selectors ->
  int
(** Exactly [Schedule_cost.estimate config (build ...)] for the generators
    derived from [selectors], computed without materialising any transfer
    list — the cheap inner loop of the schedulers' RF searches (they rank
    every candidate RF with this and build only the winning schedule).
    The equivalence suite checks the agreement on random applications.
    @raise Invalid_argument if [rf < 1]. *)

(** {1 The scheduler driver} *)

type 'a policy = {
  name : string;
      (** the scheduler tag of the schedule and of every diagnostic *)
  cross_set : bool;  (** recorded in the schedule for the validator *)
  rf_bound : Sched_ctx.t -> Morphosys.Config.t -> (int, Diag.t) result;
      (** the largest RF the policy's FB model allows (at least 1), or
          the policy's own infeasibility diagnostic (e.g. [Fb_overflow],
          [No_feasible_rf]) *)
  selectors : Sched_ctx.t -> Morphosys.Config.t -> rf:int -> 'a * selectors;
      (** what the policy keeps on chip at a candidate RF: its transfers,
          plus a per-RF payload (CDS: its retention decision) *)
}
(** A scheduler as a policy: Basic stores everything at RF = 1, DS raises
    RF inside the packable part of the FB set, CDS adds TF-ranked
    retention over the whole set. *)

val search :
  'a policy ->
  Sched_ctx.t ->
  Morphosys.Config.t ->
  (Schedule.t * 'a, Diag.t) result
(** [search policy ctx config] runs a policy through the one path every
    scheduler shares: the context plan
    ({!Context_scheduler.plan_of_analysis}), the policy's RF bound, the
    fastest RF in [1..bound] by {!estimate} (ties go to the larger RF; a
    bound of 1 is built without estimating), and one {!build} of the
    winner from {!generators_of_selectors}. Returns the schedule with the
    winning RF's payload. Every [Error] is tagged with [policy.name]. *)

val at_rf :
  'a policy ->
  Sched_ctx.t ->
  Morphosys.Config.t ->
  rf:int ->
  (Schedule.t * 'a, Diag.t) result
(** [at_rf policy ctx config ~rf] is {!search} without the RF search: the
    same context plan and RF bound, then the policy's selectors at [rf]
    and the same {!build} that ends {!search}. At the RF {!search} chose
    it returns {!search}'s result. An [rf] outside [1..bound] is an
    [Invalid_config] diagnostic, never a raise; every [Error] is tagged
    with [policy.name]. *)

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

type selectors = {
  first_loads : Kernel_ir.Data.t list array;
      (** by cluster id: the objects it loads in round 0 *)
  later_loads : Kernel_ir.Data.t list array;
      (** by cluster id: the objects it loads in every later round *)
  stored : Kernel_ir.Data.t list array;
      (** by cluster id: the objects it stores after it runs, every
          round *)
}
(** A scheduler's transfer choice, as data: one row per cluster id in
    each table. Round 0 versus a later round is the only way a cluster's
    choice depends on the round (a retained invariant table is loaded in
    round 0 alone); a policy whose loads never change may share one
    array between [first_loads] and [later_loads], which {!estimate}
    then sums once. {!build} expands a row into one transfer per
    (object, iteration) instance — one per round for an invariant
    object — so {!estimate} can cost a schedule from the objects
    alone. *)

val build :
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  rf:int ->
  ctx_plan:Context_scheduler.plan ->
  generators:selectors ->
  scheduler:string ->
  Schedule.t
(** The schedule that moves what the tables choose: each execution loads
    its cluster's row of [first_loads] (round 0) or [later_loads] and
    stores its row of [stored], one transfer per instance labelled
    ["name@iter"]. The label is named [generators] because the benchmark
    harness passes the tables under that name. The machine is not read:
    the steps depend on it only through [ctx_plan], and the argument
    stays because the benchmark harness passes it.
    @raise Invalid_argument if [rf < 1]. [cross_set] is recorded in the
    schedule for the validator (default false). *)

type cost = {
  cycles : int;  (** the simulator's total cycles *)
  data_words : int;  (** data words loaded plus stored *)
  context_words : int;  (** context words loaded into the CM *)
}
(** What a schedule costs, as [Msim.Executor] would measure it. *)

val estimate :
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  rf:int ->
  ctx_plan:Context_scheduler.plan ->
  selectors:selectors ->
  cost
(** Exactly what the simulator measures of [build ~generators:selectors]
    — its total cycles
    ([Schedule_cost.estimate]), its data words and its context words —
    without materialising any transfer list. It sums each table row's
    words and channel cycles once, then walks the pipeline round by round
    with integer arithmetic alone: O(clusters x objects) time at any
    iteration count, with no selection and no allocation per execution.
    The walk covers at most four rounds and is exact: an execution's step
    depends only on its cluster, on whether its successor is in round 0,
    on the iteration counts of its own and its neighbours' rounds, and on
    whether it is the first or the last execution. Only the last round
    may be partial, so every round but the first and the last two costs
    what round 1 costs; those rounds are priced as round 1, counted
    again. It is the inner loop of
    the RF search (every candidate RF is ranked by its [cycles]) and what
    {!price} returns for the winner. The equivalence suite checks all
    three counts on random applications.
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
    scheduler shares: the RF search — the context plan
    ({!Context_scheduler.plan_of_analysis}), the policy's RF bound and the
    fastest RF in [1..bound] by {!estimate} (ties go to the larger RF) —
    then one {!build} of the winner's selectors.
    Returns the schedule with the winning RF's payload. Every [Error] is
    tagged with [policy.name]. *)

val price :
  'a policy ->
  Sched_ctx.t ->
  Morphosys.Config.t ->
  (int * cost, Diag.t) result
(** [price policy ctx config] is {!search}'s RF search without its
    {!build}: the RF {!search} picks and the {!estimate} of its schedule,
    which equals what the simulator measures of that schedule. On an
    infeasible point it returns {!search}'s diagnostic. How a cold design
    point is evaluated. *)

(** Registry of the schedulers ({!Scheduler_intf.t}).

    Basic and DS register themselves here when [lib/sched] is linked; CDS
    (and its cross-set variant) when [lib/cds] is. Everything downstream —
    {!Cds.Pipeline}, [Report.Dse], [Report.Fuzz] and the [msched] CLI
    ([--scheduler NAME], [msched schedulers]) — dispatches by name through
    this table, so adding a fourth scheduling policy is one [register]
    call, not a three-surface fork. *)

val register : describe:string -> 'a Step_builder.policy -> unit
(** Publish a policy as a scheduler under its [name]: its [bind] is
    {!Step_builder.bind}, and the bound value's [run] is
    {!Step_builder.search}, keeping only the schedule, and its [price]
    {!Step_builder.price}.
    @raise Invalid_argument if the name is already registered (the table
    is left unchanged). *)

val find : string -> Scheduler_intf.t option

val bind : string -> Sched_ctx.t -> Scheduler_intf.bound
(** [bind name ctx] is the named scheduler bound to [ctx]: everything the
    scheduler computes from the context alone is computed here, once
    (Basic and DS: their transfer tables; CDS: its retention candidates in
    TF order, their affected clusters and each cluster's initial DS state;
    every scheduler: the tables' word and transfer counts and the
    pipeline's per-cluster compute sums). Each [run] or [price] of the
    bound value then pays only for the context plan of its machine and the
    RF search: per candidate RF, CDS merges its invariant candidates in by
    their avoided words at that RF, walks the feasibility check, and takes
    its rows as the bound rows minus each retained candidate's share; then
    the estimate walk prices the RF. Only [run]'s winner is built. An
    unknown name gives a value whose every call returns the
    [Invalid_config] diagnostic of {!run}. Binding does not depend on the
    machine, so a sweep binds each scheduler once and shares the values
    across its pool domains. *)

val run :
  string ->
  Sched_ctx.t ->
  Morphosys.Config.t ->
  (Schedule.t, Diag.t) result
(** [run name ctx config] is [(bind name ctx).run config]; an unknown
    name yields an [Invalid_config] diagnostic (never raises), so a
    user-supplied name such as [msched run -s NAME] needs no check of its
    own. *)

val price :
  string ->
  Sched_ctx.t ->
  Morphosys.Config.t ->
  (int * Step_builder.cost, Diag.t) result
(** [price name ctx config] is [(bind name ctx).price config]:
    the RF [run] would choose and the simulator's totals of [run]'s
    schedule, without building it. An unknown name yields [run]'s
    [Invalid_config] diagnostic (never raises). *)

val all : unit -> Scheduler_intf.t list
(** Every registered scheduler, sorted by name — deterministic regardless
    of link or registration order. *)

val names : unit -> string list
(** The names of {!all}. *)

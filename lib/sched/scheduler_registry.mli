(** Registry of the schedulers ({!Scheduler_intf.t}).

    Basic and DS register themselves here when [lib/sched] is linked; CDS
    (and its cross-set variant) when [lib/cds] is. Everything downstream —
    {!Cds.Pipeline}, [Report.Dse], [Report.Fuzz] and the [msched] CLI
    ([--scheduler NAME], [msched schedulers]) — dispatches by name through
    this table, so adding a fourth scheduling policy is one [register]
    call, not a three-surface fork. *)

val register : describe:string -> 'a Step_builder.policy -> unit
(** Publish a policy as a scheduler under its [name]: its [run] is
    {!Step_builder.search} and its [rebuild] is {!Step_builder.at_rf},
    both keeping only the schedule.
    @raise Invalid_argument if the name is already registered (the table
    is left unchanged). *)

val find : string -> Scheduler_intf.t option

val run :
  string ->
  Sched_ctx.t ->
  Morphosys.Config.t ->
  (Schedule.t, Diag.t) result
(** [run name ctx config] dispatches to the named scheduler; an unknown
    name yields an [Invalid_config] diagnostic (never raises), so a
    user-supplied name such as [msched run -s NAME] needs no check of its
    own. *)

val rebuild :
  string ->
  Sched_ctx.t ->
  Morphosys.Config.t ->
  rf:int ->
  (Schedule.t, Diag.t) result
(** [rebuild name ctx config ~rf] dispatches to the named scheduler's
    [rebuild]: its schedule at [rf], without the RF search. An unknown
    name or an RF outside the scheduler's bound yields a diagnostic
    (never raises). *)

val all : unit -> Scheduler_intf.t list
(** Every registered scheduler, sorted by name — deterministic regardless
    of link or registration order. *)

val names : unit -> string list
(** The names of {!all}. *)

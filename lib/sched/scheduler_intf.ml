(** The scheduler interface.

    A {e scheduler} is the unit the paper's evaluation compares (Basic vs.
    DS vs. CDS, Figure 6 / Table 1): a policy that maps one
    [(application, clustering)] scheduling context and one machine
    configuration to either a complete {!Schedule.t} or a structured
    {!Diag.t} explaining why the policy is infeasible there. Each one is
    a {!Step_builder.policy}, bound to a context by {!Step_builder.bind},
    run through {!Step_builder.search} (and priced unbuilt by
    {!Step_builder.price}), published as a {!t} in
    {!Scheduler_registry}; the pipeline, the DSE sweep, the fuzzers and
    the CLI all dispatch through it. *)

type bound = {
  run : Morphosys.Config.t -> (Schedule.t, Diag.t) result;
      (** Schedule the context's application on the given machine. Never
          raises on malformed-but-constructed input: every expected
          failure is a diagnostic. *)
  price : Morphosys.Config.t -> (int * Step_builder.cost, Diag.t) result;
      (** [run] without building the schedule: the RF [run] chooses and
          exactly what the simulator measures of [run]'s schedule, or
          [run]'s diagnostic. How a DSE sweep evaluates a design point. *)
}
(** A scheduler bound to one scheduling context ({!Step_builder.bind}):
    its context-only work is done, and each call pays for one machine's
    RF search. Immutable, so one value may serve every design point of a
    sweep on every pool domain. *)

type t = {
  name : string;
      (** Unique registry key, e.g. ["basic"], ["ds"], ["cds"]. Also the
          [scheduler] tag carried by schedules and diagnostics. *)
  describe : string;  (** One human-readable line for [msched schedulers]. *)
  bind : Sched_ctx.t -> bound;
      (** The scheduler on one context. *)
}

(** First-class scheduler interface.

    A {e scheduler} is the unit the paper's evaluation compares (Basic vs.
    DS vs. CDS, Figure 6 / Table 1): a policy that maps one
    [(application, clustering)] scheduling context and one machine
    configuration to either a complete {!Schedule.t} or a structured
    {!Diag.t} explaining why the policy is infeasible there.

    Every scheduler in the stack implements this one module type and is a
    first-class value ({!t}) registered in {!Scheduler_registry}; the
    pipeline, the DSE sweep, the fuzzers and the CLI all dispatch through
    it. *)

module type S = sig
  val name : string
  (** Unique registry key, e.g. ["basic"], ["ds"], ["cds"]. Also the
      [scheduler] tag carried by schedules and diagnostics. *)

  val describe : string
  (** One human-readable line for listings ([msched schedulers]). *)

  val run : Sched_ctx.t -> Morphosys.Config.t -> (Schedule.t, Diag.t) result
  (** The canonical entry point: schedule the context's application on the
      given machine. Never raises on malformed-but-constructed input —
      every expected failure is a diagnostic. *)
end

type t = (module S)
(** A scheduler as a first-class value. *)

val name : t -> string
val describe : t -> string
val run : t -> Sched_ctx.t -> Morphosys.Config.t -> (Schedule.t, Diag.t) result

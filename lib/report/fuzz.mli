(** Randomized differential testing of the three schedulers.

    Fans [count] random applications (from {!Workloads.Random_app}) out
    over an {!Engine.Pool}, schedules each with Basic, DS and CDS, and
    referees every produced schedule with {!Msim.Validate.check} — the
    semantic oracle that replays residency, store validity, output
    completeness, overlap legality and computation coverage. When all
    three schedulers are feasible the cycle ordering
    [CDS <= DS <= Basic] is checked too (the paper's headline claim).

    Generation is keyed by [(seed, index)], so the report is identical
    for any job count — a fuzz run is reproducible by its seed alone. *)

type case = {
  index : int;  (** 0-based application index within the run *)
  scheduler : string;
  message : string;
}

type report = {
  seed : int;
  count : int;
  fb_set_size : int;
  schedules_checked : int;  (** schedules produced and validated *)
  infeasible : int;  (** scheduler returned an error (not a bug) *)
  violations : case list;  (** validator violations — scheduler bugs *)
  ordering_failures : case list;
      (** feasible triples where CDS > DS or DS > Basic cycles *)
  faulted : int;
      (** pool slots absorbed by injected faults — not failures *)
  crashes : case list;
      (** tasks that died on an unexpected exception (isolated by the
          pool) — real bugs *)
}

val run :
  ?jobs:int ->
  ?fb_set_size:int ->
  ?stats:Engine.Stats.t ->
  seed:int ->
  count:int ->
  unit ->
  report
(** [run ~seed ~count ()] fuzzes [count] random applications on an M1
    configuration with [fb_set_size] (default 4096) words per set.
    A task that crashes is isolated into [crashes] — the remaining
    applications are still fuzzed; a task felled by an injected fault
    ({!Engine.Faults}) is counted in [faulted]. *)

val ok : report -> bool
(** No violations, no ordering failures and no crashes. *)

val pp : Format.formatter -> report -> unit

(** {1 Hostile mode}

    Mutates valid random applications into (mostly) malformed ones and
    asserts the stack is exception-free: every mutant is either flagged
    before construction by the input checks the constructors raise on
    ({!Kernel_ir.Application.check} and
    {!Kernel_ir.Cluster.check_partition}), or — checking clean —
    constructs, schedules and simulates without an uncaught exception. A
    mutant that throws after a clean check marks a rule missing from the
    checks and fails the run. *)

type hostile_report = {
  h_seed : int;
  h_count : int;
  h_fb_set_size : int;
  rejected : int;  (** mutants flagged by the input checks *)
  survived : int;  (** mutants that checked clean and scheduled safely *)
  h_faulted : int;  (** pool slots absorbed by injected faults *)
  h_crashes : case list;  (** uncaught exceptions past a clean check *)
}

val run_hostile :
  ?jobs:int ->
  ?fb_set_size:int ->
  seed:int ->
  count:int ->
  unit ->
  hostile_report
(** [run_hostile ~seed ~count ()] fuzzes [count] mutated applications.
    Mutant [i] applies the [i mod n]-th of the n mutation strategies
    (zeroed iterations, duplicate names, shuffled kernel ids, negative
    sizes, dangling consumer ids, self-consumption, invariant results,
    broken partitions, …) to random application [i]; generation is keyed
    by [(seed, index)], so the report is reproducible for any job
    count. *)

val hostile_ok : hostile_report -> bool
(** No uncaught exceptions. *)

val pp_hostile : Format.formatter -> hostile_report -> unit

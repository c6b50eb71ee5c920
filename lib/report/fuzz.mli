(** Randomized differential testing of the three schedulers.

    Fans [count] random applications (from {!Workloads.Random_app}) out
    over an {!Engine.Pool}, schedules each with Basic, DS and CDS, and
    referees every produced schedule with {!Msim.Validate.check} — the
    semantic oracle that replays residency, store validity, output
    completeness, overlap legality and computation coverage. When all
    three schedulers are feasible the cycle ordering
    [CDS <= DS <= Basic] is checked too (the paper's headline claim).

    Every generated application is valid: invalid input is kept out by
    the total checks ({!Kernel_ir.Application.check},
    {!Kernel_ir.Cluster.check_partition}), not fuzzed here. At the
    default 4096-word frame buffer a batch is typically all feasible; at
    1024 words some schedules are infeasible, so the frame-buffer-bound
    RF search and its diagnostics run too.

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
    applications are still fuzzed. *)

val ok : report -> bool
(** No violations, no ordering failures and no crashes. *)

val pp : Format.formatter -> report -> unit

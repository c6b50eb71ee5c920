(** Replays a {!Sched.Schedule.t} against the machine timing model.

    Each step advances time by [max(compute, dma)] when a computation and
    its overlapped transfers proceed in parallel (double buffering), or by
    the serial DMA cost for pure transfer steps. The single DMA channel
    services a step's transfer batch serially. *)

type timed_step = {
  step : Sched.Schedule.step;
  start_cycle : int;
  end_cycle : int;
  dma_cost : int;
  compute_cost : int;
}

val run : Morphosys.Config.t -> Sched.Schedule.t -> Metrics.t
(** Timing and traffic metrics of the schedule. *)

val cost : Morphosys.Config.t -> Sched.Schedule.t -> Sched.Step_builder.cost
(** The three counts of {!run} that {!Sched.Step_builder.estimate} computes
    without a schedule: total cycles, data words, context words. *)

val run_timed : Morphosys.Config.t -> Sched.Schedule.t -> Metrics.t * timed_step list
(** Also returns the per-step timeline, for {!Trace}. *)

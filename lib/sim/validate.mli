(** Semantic checker for schedules — the simulator's referee.

    Replays a schedule at the granularity of (object, iteration) instances
    and verifies, independently of how the schedule was built:

    - *residency*: every kernel input is present in the kernel's FB set when
      the kernel executes (loaded earlier, retained, or produced by an
      earlier kernel of the same cluster in the same iteration);
    - *store validity*: every stored instance was resident when stored;
    - *output completeness*: every final result of every iteration is stored
      to external memory exactly once;
    - *overlap legality*: no transfer overlapped with a computation touches
      the computing cluster's FB set;
    - *computation coverage*: every (cluster, iteration) pair executes
      exactly once, in iteration order per cluster.

    Space (does everything fit?) is checked separately by the footprint
    logic and the allocation algorithm, not here.

    Cost. The replay state is three hash tables (residency, stores,
    executed (cluster, iteration) pairs), each sized to the schedule: one
    bucket per (object, iteration) instance, or per (cluster, iteration)
    pair. A small schedule's check therefore allocates nothing directly in
    the major heap; a table still grows if the schedule needs more. The
    cost is linear in the schedule's steps, transfers and kernel
    executions, except for two scans over every data object: each data
    transfer resolves its name with [Application.data_by_name_opt], and
    each kernel execution lists its inputs and outputs with
    [Application.inputs_of] / [outputs_of]. Those make a check
    O(transfers x data) on large applications (ROADMAP item 3). *)

type violation = { step_index : int; message : string }

val check : Sched.Schedule.t -> violation list
(** Empty list = schedule is semantically sound. *)

val check_result : Sched.Schedule.t -> (unit, Diag.t) result
(** {!check} as a structured result: the violations joined into one
    [Sim_divergence] diagnostic. *)

val check_exn : Sched.Schedule.t -> unit
(** @raise Failure with a joined diagnostic if any violation is found.
    Callers that must not raise should use {!check_result}. *)

val pp_violation : Format.formatter -> violation -> unit

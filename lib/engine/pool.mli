(** [Domain]-based worker pool with deterministic result order, per-task
    crash isolation and helper domains kept between calls.

    [run_results ~jobs tasks] evaluates every task exactly once and
    returns the results in task order, whatever the interleaving of the
    workers: slot [i] of the output always holds the result of
    [tasks.(i)]. With [~jobs:1] (the default) the tasks run sequentially
    in the calling domain — the reference path parallel runs are
    compared against. A task that raises yields an [Error] slot carrying
    a [Task_crashed] {!Diag.t} while every other task's result is
    returned — one bad job never aborts a sweep. The diagnostic
    carries a backtrace whenever the caller records backtraces
    ([Printexc.backtrace_status]), whichever domain ran the task.

    A call runs on at most [recommended_jobs ()] workers, whatever its
    [jobs]: more domains than the hardware runs at once would only sit
    idle and slow the others. The caller is one of the workers; the
    others are helper domains, the only domains the pool starts. The
    pool keeps the helpers of its latest call asleep until the next one,
    so back-to-back calls do not pay for fresh domains. A call keeps at
    most [min jobs (recommended_jobs ()) - 1] of them: it spawns only the
    ones its tasks run on and stops the rest, so a [~jobs:1] call leaves
    none. While helpers are kept, each still takes part in every
    stop-the-world collection, which slows single-domain work done
    meanwhile. A call made while the pool is busy — from inside one of
    its tasks, or from another domain at the same time — neither waits
    for it nor changes its helpers: it runs its own tasks in its own
    domain, one after another. Kept helpers never keep the process
    alive.

    Tasks must not themselves spawn domains per task and should be pure
    (or touch only domain-safe state): the pool guarantees each task runs
    once, but makes no promise about which domain runs it. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)

val run_results :
  ?jobs:int -> (unit -> 'a) array -> ('a, Diag.t) result array
(** [run_results ~jobs tasks] evaluates the tasks on
    [min jobs (recommended_jobs ()) (length tasks)] domains (the caller
    counts as one worker), and on the caller's domain alone when the pool
    is busy. The results are the same at any [jobs].
    Slot [i] is [Ok v] or [Error diag], where the diagnostic is
    [Task_crashed] (with backtrace): a task crash is the pool's one failure.
    An empty task array returns [[||]] without spawning any domain. A
    crashed task is never re-run.
    @raise Invalid_argument if [jobs < 1] (callers mapping "0 = auto"
    must resolve it with {!recommended_jobs} first). *)

val with_task_prelude : (int -> unit) -> (unit -> 'a) -> 'a
(** [with_task_prelude p f] runs [f]; while it runs, task [i] of every
    pool call first runs [p i], on the domain that runs the task. An
    exception from [p i] crashes task [i] like one from its body: its slot
    is a [Task_crashed] diagnostic and its body never runs. The previous
    prelude (none, outside any [with_task_prelude]) is back when [f]
    returns or raises. This is the test seam that fells chosen tasks;
    without a prelude a task pays one atomic load for it. *)

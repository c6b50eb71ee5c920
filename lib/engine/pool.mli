(** [Domain]-based worker pool with deterministic result order, per-task
    fault isolation and helper domains kept between calls.

    [run_results ~jobs tasks] evaluates every task exactly once and
    returns the results in task order, whatever the interleaving of the
    workers: slot [i] of the output always holds the result of
    [tasks.(i)]. With [~jobs:1] (the default) the tasks run sequentially
    in the calling domain — the reference path parallel runs are
    compared against. One crashing or fault-injected task yields an
    [Error] slot carrying a structured {!Diag.t} while every other task's
    result is returned — one bad job never aborts a sweep. The diagnostic
    carries a backtrace whenever the caller records backtraces
    ([Printexc.backtrace_status]), whichever domain ran the task.

    The caller is one of the workers; the others are helper domains.
    The pool keeps the helpers of its latest call asleep until the next
    one, so back-to-back calls do not pay for fresh domains. A call
    keeps at most [min jobs (recommended_jobs ()) - 1] of them: it spawns
    only the ones its tasks run on and stops the rest, so a [~jobs:1]
    call leaves none. A call that asks for more workers than that spawns
    the extra domains for that call only and joins them. While helpers
    are kept, each still takes part in every stop-the-world collection,
    which slows single-domain work done meanwhile. A call made while the
    pool is busy — from inside one of its tasks, or from another domain
    at the same time — neither waits for it nor changes its helpers: it
    spawns its own domains for that call. Kept helpers never keep the
    process alive.

    Tasks must not themselves spawn domains per task and should be pure
    (or touch only domain-safe state): the pool guarantees each task runs
    once, but makes no promise about which domain runs it. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)

val run_results :
  ?jobs:int -> (unit -> 'a) array -> ('a, Diag.t) result array
(** [run_results ~jobs tasks] evaluates the tasks on
    [min jobs (length tasks)] domains (the caller counts as one worker),
    or on fewer when the runtime cannot spawn that many domains.
    Slot [i] is [Ok v] or [Error diag], where the diagnostic is
    [Fault_injected] for an {!Faults.Injected} fault and [Task_crashed]
    (with backtrace) otherwise. An empty task array returns [[||]]
    without spawning any domain. A failed task is never re-run.
    @raise Invalid_argument if [jobs < 1] (callers mapping "0 = auto"
    must resolve it with {!recommended_jobs} first). *)

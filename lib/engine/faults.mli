(** Deterministic seeded fault injection.

    A {!plan} decides, purely from [(seed, site, n)], whether the [n]-th
    visit to an injection site raises {!Injected}: the set of firing
    visits is reproducible from the seed alone, whatever domain or task
    reaches the site (under parallel runs the *assignment* of firings to
    tasks follows the interleaving, but the firing count for a given
    number of visits does not). While no plan is armed every site is a
    single atomic load — the production fast path.

    The one injection site in this codebase is ["pool"], the entry of
    every {!Pool} task: a felled task's body never runs, so nothing it
    would have computed is persisted. *)

exception Injected of string
(** [Injected "site#n"] — the injected failure. Transient by
    construction: the visit counter has advanced, so nothing that depends
    on it may be persisted; a resumed sweep recomputes a felled point. *)

type plan = { seed : int; rate : float }

val plan : ?rate:float -> seed:int -> unit -> plan
(** [rate] (default 0.05) is the per-visit firing probability.
    @raise Invalid_argument if [rate] is outside [0, 1] or NaN. *)

val arm : plan -> unit
(** Install the plan globally and reset the visit counters — a fresh
    [arm] with the same plan reproduces the same firing sequence. *)

val disarm : unit -> unit

val hit : string -> unit
(** [hit site] registers a visit; raises {!Injected} when the armed plan
    fires. A no-op when disarmed. *)

val injected_count : unit -> int
(** Faults fired since the last {!arm}. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan p f] arms [p], runs [f], and disarms whatever happens. *)

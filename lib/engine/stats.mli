(** Per-task timing and progress instrumentation for pool runs.

    One [Stats.t] accumulates, thread-safely, a labelled timing series
    (label = scheduler name in the DSE engine): task count, wall and CPU
    seconds, min/max wall per task — plus the result-store lookup
    (hit/miss) and replay totals reported by a durable sweep. Feed it to [Report.Dse.sweep ~stats] / [Report.Fuzz.run
    ~stats] and print it with {!pp} (the [--stats] CLI flag). *)

type entry = {
  label : string;
  count : int;  (** tasks run under this label *)
  wall : float;  (** summed wall-clock seconds *)
  cpu : float;  (** summed process CPU seconds (all domains) *)
  min_wall : float;
  max_wall : float;
}

type t

val create : unit -> t

val time : t -> label:string -> (unit -> 'a) -> 'a
(** Run the thunk, charging its wall/CPU time to [label]. Re-raises
    whatever the thunk raises (the timing is still recorded). *)

val record : t -> label:string -> wall:float -> cpu:float -> unit
(** Charge an externally measured duration to [label]. *)

val note_store : t -> replayed:int -> recomputed:int -> quarantined:int -> unit
(** Accumulate the counters of one durable sweep: design points replayed
    from the result store instead of being scheduled (the cache hits),
    points scheduled (the misses), and records quarantined (corrupt,
    truncated, or failing re-validation). *)

val entries : t -> entry list
(** Sorted by label. *)

val tasks_run : t -> int
val store_replayed : t -> int
val store_quarantined : t -> int

val cache_hits : t -> int
(** The same count as {!store_replayed}: a replayed point is a hit. *)

val cache_misses : t -> int
(** The points recomputed because the store did not hold them. *)

val pp : Format.formatter -> t -> unit
(** Table of per-label count / total / mean / min / max wall time, CPU
    time, and the store's replayed / quarantined totals when any were
    noted. *)

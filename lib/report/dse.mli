(** Design-space exploration over the machine parameters: sweep the
    frame-buffer set size (and optionally the CM capacity and DMA setup
    cost, the other two fields of {!Morphosys.Config.t}; M1's one word per
    DMA cycle and 8x8 RC array are fixed) for one application, recording
    feasibility, RF, traffic and cycles per scheduler — the study an
    architect runs to size the on-chip memories for a workload. *)

type point = {
  fb_set_size : int;
  cm_capacity : int;
  dma_setup_cycles : int;
  scheduler : string;  (** "basic" | "ds" | "cds" *)
  feasible : bool;
  rf : int option;
  total_cycles : int option;
  data_words : int option;  (** loads + stores *)
  context_words : int option;
  diag : Diag.t option;
      (** why the point is infeasible: a scheduler diagnostic, or a
          [Task_crashed]/[Fault_injected] when the design-point task died
          and was isolated *)
}

val schedulers : string list
(** [["basic"; "ds"; "cds"]] — the registry names the sweep crosses
    with the machine axes. *)

val check_axes :
  fb_list:int list ->
  cm_list:int list ->
  setup_list:int list ->
  (unit, Diag.t) result
(** The sweep's input check: every axis must be non-empty, and every
    axis value must pass {!Morphosys.Config.validate} on the M1 machine
    with just that field replaced. [Error] is the first failure's
    [INVALID_CONFIG] diagnostic: an empty axis first, then the values,
    each in the order FB, CM, DMA setup. {!Durable.open_} returns it and
    {!sweep} raises on it. *)

(** Durable sweep state: an on-disk, crash-recoverable record of a
    sweep's completed design points.

    A [Durable.t] is one {!Engine.Store}: record 0 holds the sweep
    {!identity}, and every later record holds one design point's result.
    A record that verifies is complete: appends are single writes framed
    by an MD5, so a crash can only tear the tail, which the store
    quarantines on open. Opening checks only those bytes and the sweep
    identity; the surviving points are re-validated later, by {!sweep},
    on its worker pool. *)
module Durable : sig
  type t

  val schema_version : int
  (** Version of the point payload's encoding; part of the sweep
      identity, so a payload-format change refuses to resume old
      stores instead of misreading them. *)

  val encode : point -> string
  (** A point record's payload: one line of tab-separated text, the nine
      scalar fields and then, for a point that has one, the eight fields
      of its [diag]. Strings are [String.escaped] (optional ones quoted),
      so no field holds a tab or a newline. A stored payload is never
      parsed: replay recomputes the point and compares its encoding with
      the stored bytes. *)

  val open_ :
    ?resume:bool ->
    path:string ->
    ?cm_list:int list ->
    ?setup_list:int list ->
    fb_list:int list ->
    Kernel_ir.Application.t ->
    Kernel_ir.Cluster.clustering ->
    (t, Diag.t) result
  (** Open (or create) the store at [path] for the sweep identified by
      the given application, clustering and axis lists. A store without
      an identity record (fresh, or with record 0 torn) is claimed by
      appending this sweep's identity. Bad axis values are refused first,
      with {!check_axes}'s [INVALID_CONFIG] diagnostic.

      Without [~resume] (the default) an existing non-empty [path] is
      refused with a [SWEEP_MISMATCH] diagnostic — overwriting a
      previous run must be asked for. With [~resume:true] the store is
      opened, its recorded sweep identity is checked against the
      requested one (mismatch: [SWEEP_MISMATCH]); the surviving points
      stay on disk until {!sweep} re-validates them. A torn tail or a
      failed checksum is quarantined and reported via {!warnings}, never
      fatal. *)

  val identity : t -> string
  (** Hex digest of (application, clustering, axes, scheduler set,
      payload schema, store format) — what {!open_} checks on resume. *)

  val completed : t -> int
  (** Number of design points on disk (the store's live keys minus the
      identity record). *)

  val warnings : t -> Diag.t list
  (** Quarantine and recovery warnings accumulated since {!open_}:
      store-level corruption found on open, then each sweep's
      re-validation and persist failures, in design-point order (the same
      list at any [~jobs]). *)

  val checkpoint : t -> unit
  (** Fsync the store. Async-signal-tolerant: takes no locks, so it is
      safe to call from a SIGINT/SIGTERM handler while workers are
      mid-append. *)

  val close : t -> unit

  val inspect : string -> (string option * int, Diag.t) result
  (** Offline and read-only, for [msched store info]: the sweep identity
      recorded in the store at a path ([None] when unclaimed) and the
      number of design points it holds. *)
end

val sweep :
  ?jobs:int ->
  ?stats:Engine.Stats.t ->
  ?store:Durable.t ->
  ?cm_list:int list ->
  ?setup_list:int list ->
  fb_list:int list ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  point list
(** Full cross product, three schedulers per configuration, in order. A
    design point repeated by the axis lists is evaluated once. A point is
    priced, not built: the [price] of its scheduler gives the RF the
    scheduler picks and exactly the cycles and words simulating its
    schedule would measure, so no schedule is built or simulated. The
    sweep makes one {!Sched.Sched_ctx} and binds each scheduler to it
    once ({!Sched.Scheduler_registry.bind}), on the calling domain; every
    point then pays only for its machine's RF search.

    [~jobs] (default 1) fans the design points out over an
    {!Engine.Pool} of that many domains; the point list (and therefore
    {!to_csv}) is byte-identical to the sequential [~jobs:1] path
    whatever the interleaving. [~stats] accumulates per-scheduler timing
    and, with a store, the hit/miss and replay counters.

    [~store] makes the sweep durable: each point is keyed by
    (application, clustering, machine config, scheduler) digest, and its
    record holds the {!point} alone — never a schedule. Every distinct
    point is one pool task, which first re-validates the point's stored
    record, if any. A record is trusted (a hit) only if its payload is,
    byte for byte, the {!Durable.encode} of what this sweep would compute,
    by one rule for feasible and infeasible records alike: the point's
    scheduler is run again on this sweep's own application and clustering
    (the bound scheduler's [run]: the RF search, then one build). A
    diagnostic gives the expected infeasible point; a schedule must pass
    [Msim.Validate.check_result], and simulating it gives the expected
    feasible point. So every replay re-proves the stored RF and checks the
    priced numbers against the simulator. Any other record — bytes that
    are no point's encoding, another RF, scheduler or axes, an altered
    count or diagnostic — is quarantined with a [STORE_CORRUPT] warning
    and the point recomputed. Each newly computed point is persisted as it
    finishes — not at the end — so a crash loses at most the points in
    flight. The store's sweep identity must match the requested axes and
    application (@raise Invalid_argument otherwise — open the store with
    {!Durable.open_} on the same arguments you pass here). It raises
    [Invalid_argument] too when {!check_axes} fails. A resumed sweep
    returns a point list byte-identical to an uninterrupted run.

    The sweep is fault-isolated: a design-point task that crashes or is
    felled by an injected {!Engine.Faults} fault becomes an infeasible
    point carrying the failure in [diag]; every other point is still
    computed and returned. Neither is ever persisted or quarantined: both
    are transient, and a later resume recomputes (or replays) them. *)

val to_csv : point list -> string

val all_infeasible_diag : point list -> Diag.t option
(** [Some diag] when the sweep produced points but no feasible one — the
    condition under which [msched dse] exits nonzero. [None] as soon as
    one point is feasible. *)

val best : point list -> point option
(** The feasible point with the fewest cycles (ties: smaller frame
    buffer — cheaper silicon). *)

val pareto : point list -> point list
(** Feasible points not dominated in (fb_set_size, total_cycles): the
    memory-size / performance trade-off frontier, ascending by size. *)

val print_table : point list -> unit

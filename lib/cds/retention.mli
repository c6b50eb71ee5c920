(** The greedy retention pass (paper §4): walk the TF-ranked candidates and
    keep each one whose pinned words still fit every affected cluster,
    i.e. [rf * DS(C, pinned) <= fb_set_size] for all same-set clusters in
    the candidate's window. Retention never lowers the reuse factor the
    Data Scheduler achieved — it only spends the residual space. *)

type decision = {
  retained : Sharing.t list;  (** accepted, in TF order *)
  rejected : (Sharing.t * string) list;  (** declined, with the reason *)
  avoided_words_per_iteration : int;
  avoided_transfers_per_iteration : int;
}

val pinned_for :
  retained:Sharing.t list -> cluster:Kernel_ir.Cluster.t -> Kernel_ir.Data.t list
(** The objects occupying the cluster's set for its whole execution because
    of retention (excludes a shared result at its own producer, which the
    cluster footprint already charges as rout). *)

type ranking =
  [ `Tf  (** the paper's time-factor order (default) *)
  | `Fifo  (** candidates in data-object order — no prioritisation *)
  | `Smallest_first  (** smallest objects first *)
  | `Largest_first  (** largest objects first, ignoring the use count *) ]
(** Candidate orderings, for the ablation benchmark: under tight memory the
    greedy pass keeps a prefix of the order, so the order decides which
    transfers are avoided. *)

val choose :
  ?cross_set:bool ->
  ?ranking:ranking ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  rf:int ->
  decision
(** @raise Invalid_argument if [rf < 1]. This is the reference list-based
    implementation: it rebuilds every affected cluster's pinned set and DS
    split from scratch for each candidate. *)

val choose_ctx :
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Sched.Sched_ctx.t ->
  rf:int ->
  decision
(** Same decision as {!choose} in the paper's [`Tf] ranking (identical
    retained/rejected lists and rejection strings): [decision p (walk p
    config ~rf)] for [p = prepare ?cross_set ctx].
    @raise Invalid_argument if [rf < 1]. *)

(** {1 Staged retention}

    Only the feasibility walk depends on RF and on the machine. The
    candidates, their TF order, the clusters each one occupies and each
    cluster's DS state before any pin are the context's alone, so they
    are prepared once and read by every walk. *)

type prepared
(** A context's retention candidates in [Time_factor.rank] order, each
    with its affected clusters and what pinning it does to each, and every
    cluster's initial state: the sweep arrays of the DS closed form.
    Immutable: a walk keeps its own pinned sums and copies a cluster's
    d-suffix array the first time it strips an object from it. *)

val prepare : ?cross_set:bool -> Sched.Sched_ctx.t -> prepared

val candidates : prepared -> Sharing.t array
(** The candidates in [Time_factor.rank] order: candidate [i] of every
    {!walk} of this value. *)

type walk
(** One greedy pass at one RF and FB size: which candidates it kept, and
    why it refused the others. *)

val walk : prepared -> Morphosys.Config.t -> rf:int -> walk
(** The pass at [rf]: the invariant candidates are merged into the
    prepared order by their avoided words at [rf], then each candidate is
    kept if every affected cluster still fits [rf * per_iteration +
    constant <= fb_set_size] with it pinned. O(candidates x affected
    clusters x cluster kernels); it makes no string and no list of the
    kept candidates.
    @raise Invalid_argument if [rf < 1]. *)

val kept : walk -> int -> bool
(** Whether the walk kept candidate [i] of {!candidates}. *)

val decision : prepared -> walk -> decision
(** The walk as a {!decision}: the kept candidates and the refused ones
    with their reasons, in walk order. *)

val none : decision
(** The empty decision — used to ablate retention. *)

val pp_decision : Format.formatter -> decision -> unit

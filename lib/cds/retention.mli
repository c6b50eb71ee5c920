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
    retained/rejected lists and rejection strings), computed incrementally over a precomputed
    scheduling context: each cluster keeps the sweep arrays of the DS
    closed form, pins update them in place, and a candidate's feasibility
    is an O(cluster kernels) query instead of a from-scratch profile walk.
    @raise Invalid_argument if [rf < 1]. *)

val none : decision
(** The empty decision — used to ablate retention. *)

val pp_decision : Format.formatter -> decision -> unit

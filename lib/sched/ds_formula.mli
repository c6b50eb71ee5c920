(** The cluster footprint formula DS(C) of paper §3 — the maximum number of
    frame-buffer words a cluster needs for ONE iteration when dead inputs
    and dead intermediate results are replaced in place by new results.

    With loop fission the cluster stores the data of RF consecutive
    iterations, so the space constraint is [rf * ds_c <= fb_set_size].

    The paper's closed-form maximum ({!closed_form}, {!split}) and a
    symbolic execution of the kernel sequence ({!by_simulation}) are the
    references, property-tested against each other. The schedulers read
    one linear {!sweep} per cluster instead, and pin retained objects
    into it ({!pin}, {!peak}); the tests check it against {!split}. *)

val closed_form : ?pinned:Kernel_ir.Data.t list -> Kernel_ir.Info_extractor.cluster_profile -> int
(** The paper's formula
    [DS(C) = max_i ( sum_{j>=i} d_j + sum_{j<=i} rout_j
                     + sum_{j<=i} sum_{t>=i} r_jt )]
    where [i], [j], [t] range over the cluster's kernel positions.

    [pinned] lists objects the Complete Data Scheduler retains in the FB for
    the whole cluster window: they are charged for the full duration and
    excluded from the positional [d_j] terms (retention must not double
    count an object that is both retained and consumed here). *)

val by_simulation : ?pinned:Kernel_ir.Data.t list -> Kernel_ir.Info_extractor.cluster_profile -> int
(** Ground truth: walks the kernel sequence, loading all cluster inputs up
    front, adding each kernel's outputs when it executes and releasing
    objects after their last in-cluster use; reports the peak residency. *)

val split :
  ?pinned:Kernel_ir.Data.t list ->
  Kernel_ir.Info_extractor.cluster_profile ->
  int * int
(** [(per_iteration, constant)] — iteration-invariant tables (the cluster's
    own invariant inputs plus any invariant pinned objects) are charged once
    regardless of the reuse factor, everything else per iteration; the space
    constraint is [rf * per_iteration + constant <= fb_set_size]. Without
    invariant data, [split p = (closed_form p, 0)]. *)

(** {1 The linear sweep} *)

type sweep = private {
  d_suffix : int array;
      (** [n + 1] entries for [n] kernels: entry [i] is the words of the
          non-invariant inputs whose last in-cluster consumer is at
          position [i] or later (the [d_j] suffix); entry [n] is 0 *)
  rp_inter : int array;
      (** by position [i]: the rout words of positions [<= i] plus the
          intermediate words live across [i] *)
  constant : int;  (** the invariant inputs' words, charged once *)
  last_use : (int * int) array;
      (** [(data id, position of its last in-cluster consumer)] of every
          cluster input, by ascending id *)
  per_iteration : int;  (** [fst (split p)] *)
  footprint : int;  (** [closed_form p] *)
}
(** One cluster's closed form as prefix, suffix and difference arrays,
    built in one pass over its profile. [split p = (per_iteration,
    constant)]. A sweep is shared by every reader of a context, so its
    arrays are never written: a reader that strips pins copies
    [d_suffix] first. *)

val sweep : Kernel_ir.Info_extractor.cluster_profile -> sweep

type pin = {
  strip_pos : int;  (** last position the strip covers; -1 for none *)
  strip : int;  (** words leaving the d-suffix at positions [<= strip_pos] *)
  constant_add : int;  (** words joining the constant *)
  regular_add : int;  (** words charged per iteration for the window *)
}
(** What pinning one object does to a cluster's split. *)

val no_pin : pin
(** Pins nothing: the strip covers no position and adds no words. *)

val pin : sweep -> Kernel_ir.Data.t -> pin
(** Pinning an object into the cluster: a non-invariant input leaves the
    d-suffix up to its last consumer and is charged per iteration; an
    invariant input is a constant already; an object the cluster does not
    consume is charged in full. Pinning a set [ps] of distinct objects
    gives [split ~pinned:ps p]: strip each pin from a copy of [d_suffix],
    then per iteration [peak] plus the [regular_add]s, and [constant] plus
    the [constant_add]s. *)

val peak : sweep -> int array -> pin -> int
(** [peak s d_suffix pin]: the per-iteration peak of [s] over a (stripped)
    copy [d_suffix] of its suffix, with [pin]'s strip applied on top,
    excluding every pinned sum. Reads [d_suffix]; writes nothing. *)

val footprint_basic : Kernel_ir.Info_extractor.cluster_profile -> int
(** The Basic Scheduler's footprint: no replacement — all inputs and all
    results of the cluster are resident simultaneously. *)

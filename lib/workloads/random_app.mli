(** QCheck generators for random — but always well-formed — applications and
    clusterings, used by the property-based tests (scheduler invariants,
    DS(C) formula agreement, allocator soundness). *)

val large :
  kernels:int -> data:int -> seed:int -> Kernel_ir.Application.t
(** Deterministic large application for scaling benchmarks: the same
    [(kernels, data, seed)] triple always builds the same application.
    [data] counts extra shared/result objects beyond the per-kernel
    private input and final, so the app holds [2 * kernels + data] data
    objects. Shared objects span windows of nearby kernels.
    @raise Invalid_argument if [kernels < 1] or [data < 0]. *)

val pairs_clustering :
  Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering
(** Kernels grouped two by two in execution order (trailing singleton when
    the count is odd) — a deterministic clustering for benchmarks. *)

val gen_app_with_clustering :
  (Kernel_ir.Application.t * Kernel_ir.Cluster.clustering) QCheck.Gen.t
(** A random kernel chain of 2-6 kernels with random external inputs,
    intermediate chains, shared data and final results (8-256 words each,
    up to 8 beyond each kernel's private input and final), and a random
    partition of its kernel sequence. Every application validates; every
    kernel consumes at least one object and every object has a legal
    producer/consumer relation. *)

val arb_app_with_clustering :
  (Kernel_ir.Application.t * Kernel_ir.Cluster.clustering) QCheck.arbitrary
(** {!gen_app_with_clustering} with a printer. *)

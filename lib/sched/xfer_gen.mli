(** Transfer selections shared by the Basic and Data schedulers: every
    cluster input produced outside the cluster is loaded for every
    iteration, every outliving result is stored for every iteration. The
    Complete Data Scheduler refines these by skipping retained objects.
    Each is a {!Step_builder.selectors}, with one load table shared by
    round 0 and the later rounds. *)

val plain :
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  Step_builder.selectors
(** The Data Scheduler's traffic: load cluster inputs, store only the
    results that outlive the cluster (intermediates die on chip). *)

val store_everything :
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  Step_builder.selectors
(** The Basic Scheduler's traffic: same loads, but every produced result —
    intermediates included — is written back to external memory (no
    liveness analysis, the "no data reuse" baseline). *)

val plain_selectors_ctx : Kernel_ir.Analysis.t -> Step_builder.selectors
(** {!plain} over a precomputed analysis context: profiles come from the
    context's O(1) by-id array instead of a fresh
    {!Kernel_ir.Info_extractor.profiles} list walk. *)

val plain_ctx : Kernel_ir.Analysis.t -> Step_builder.selectors
(** The same function as {!plain_selectors_ctx}. It is kept under this
    name because the benchmark harness in [perfbench/] calls it, and that
    harness is held fixed so its numbers stay comparable across
    changes. *)

val store_everything_selectors_ctx :
  Kernel_ir.Analysis.t -> Step_builder.selectors
(** {!store_everything} over a precomputed analysis context: the Basic
    Scheduler's transfers. *)

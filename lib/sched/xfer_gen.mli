(** Transfer-list generators shared by the Basic and Data schedulers: every
    cluster input produced outside the cluster is loaded for every
    iteration, every outliving result is stored for every iteration. The
    Complete Data Scheduler refines these by skipping retained objects. *)

val plain :
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  Step_builder.generators
(** The Data Scheduler's traffic: load cluster inputs, store only the
    results that outlive the cluster (intermediates die on chip). *)

val store_everything :
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  Step_builder.generators
(** The Basic Scheduler's traffic: same loads, but every produced result —
    intermediates included — is written back to external memory (no
    liveness analysis, the "no data reuse" baseline). *)

val plain_ctx : Kernel_ir.Analysis.t -> Step_builder.generators
(** {!plain} over a precomputed analysis context: profiles come from the
    context's O(1) by-id array instead of a fresh
    {!Kernel_ir.Info_extractor.profiles} list walk. The schedulers build
    through {!Step_builder.search} from the selectors below; this is the
    same expansion of {!plain_selectors_ctx}, for callers that build a
    schedule by hand. *)

val plain_selectors_ctx : Kernel_ir.Analysis.t -> Step_builder.selectors
(** The object selection behind {!plain_ctx}, for
    {!Step_builder.estimate} and {!Step_builder.search}: the Data
    Scheduler's transfers, with one load table shared by round 0 and the
    later rounds. *)

val store_everything_selectors_ctx :
  Kernel_ir.Analysis.t -> Step_builder.selectors
(** The object selection behind {!store_everything}, over a precomputed
    analysis context: the Basic Scheduler's transfers. *)

(** The Complete Data Scheduler — the paper's contribution.

    Builds on the Data Scheduler: same cluster footprints [DS(C)] and the
    same loop-fission scheme, but (a) its fragmentation-free allocator packs
    the whole frame-buffer set, so its common reuse factor RF can exceed the
    Data Scheduler's (paper §5: the improved allocation "allows it to
    increase RF"), and (b) it retains TF-chosen shared data and shared
    results in the frame buffer ({!Retention}), so that

    - a shared datum is loaded once per iteration instead of once per
      consumer cluster, and
    - a retained shared result neither travels to external memory nor is
      reloaded by its consumer clusters (final results still perform their
      mandatory store).

    [~retention:false] ablates the retention pass (the schedule then equals
    the Data Scheduler's); [~cross_set:true] enables the future-work
    cross-set reuse. *)

type result = {
  schedule : Sched.Schedule.t;
  retention : Retention.decision;
  rf : int;
  data_words_avoided_per_iteration : int;
      (** the paper's DT column of Table 1 *)
}

val run_full :
  ?retention:bool ->
  ?cross_set:bool ->
  Sched.Sched_ctx.t ->
  Morphosys.Config.t ->
  (result, Diag.t) Stdlib.result
(** The Complete Data Scheduler with its options. Returns the rich
    {!result} (retention decision, RF, DT words) the pipeline and
    reports need. [Error] is a [No_feasible_rf] or [Cm_overflow]
    diagnostic under the same conditions as the Data Scheduler (some
    [DS(C)] exceeding the FB set even at RF = 1, or context-memory
    overflow), tagged ["cds-xset"] when [cross_set] and ["cds"]
    otherwise. It is {!Sched.Step_builder.search} over a policy whose RF
    bound is the full FB set and whose per-RF selection skips what
    {!Retention.choose_ctx} retains. The registry holds it under ["cds"]
    and, with [~cross_set:true], under ["cds-xset"]. *)

val schedule_reference :
  ?retention:bool ->
  ?cross_set:bool ->
  Morphosys.Config.t ->
  Kernel_ir.Application.t ->
  Kernel_ir.Cluster.clustering ->
  (result, string) Stdlib.result
(** The original list-based implementation, retained verbatim as the
    equivalence oracle for the indexed path (the test suite and the
    benchmark's correctness check). Produces results byte-identical to
    {!run_full}'s, with [Diag.to_string] errors. *)

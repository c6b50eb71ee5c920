(** Textual reproductions of the paper's Figures 3 and 5, the §6 allocator
    quality claims, and the (non-paper) ablation study. *)

val run : unit -> unit
(** Print every section to stdout, in order: Figure 5 (frame-buffer
    snapshots of the 3-kernel cluster at RF=2), Figure 3 (DOT graphs
    before and after loop fission), allocator quality on the twelve
    experiments, the retention and cross-set ablations, the TF-ordering
    ablation, the DMA setup-cost sensitivity, and the kernel-scheduler
    heuristics against exhaustive search. *)

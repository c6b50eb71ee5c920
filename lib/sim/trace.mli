(** Human-readable replay traces: the per-step timeline with overlap
    percentages, used by the CLI's [--trace] flag and the examples. *)

val render : Morphosys.Config.t -> Sched.Schedule.t -> string
(** Full timeline: one line per step with start/end cycles, what computed,
    how many DMA words moved and how much of the transfer time was hidden
    under computation. Ends with the metrics summary. *)

val render_gantt : Morphosys.Config.t -> Sched.Schedule.t -> string
(** ASCII Gantt chart, 72 columns wide: one row for the RC array, one for
    the DMA channel. *)

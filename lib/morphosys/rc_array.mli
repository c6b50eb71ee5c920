(** Timing model of the 8x8 reconfigurable-cell array.

    At the abstraction level of the schedulers a kernel is characterised by
    its per-iteration execution cycles; the array itself only contributes
    the cost of switching between CM-resident contexts. *)

val reconfigure_cycles : Config.t -> contexts:int -> int
(** Cycles to switch the array onto a kernel whose contexts are already in
    the CM: context words broadcast one row (or column) per cycle. This is
    the cheap dynamic reconfiguration multi-context architectures provide —
    compare with the [context_cycles_per_word] external reload cost. *)

(** Timing model of the 8x8 reconfigurable-cell array.

    At the abstraction level of the schedulers a kernel is characterised by
    its per-iteration execution cycles; the array itself only contributes
    the cost of switching between CM-resident contexts. *)

val reconfigure_cycles : contexts:int -> int
(** Cycles to switch the array onto a kernel whose contexts are already in
    the CM: context words broadcast one row of 8 per cycle, so at most
    [2^17] cycles for the {!Config.max_quantity} bound on a kernel's
    contexts. This is the cheap dynamic reconfiguration multi-context
    architectures provide — compare with reloading the contexts from
    external memory, one {!Dma.cycles_per_word} per word.
    @raise Invalid_argument on negative [contexts]. *)

(** Parameters of the MorphoSys M1 target.

    The paper schedules for one machine, M1: an 8x8 RC array and one DMA
    channel moving one word per cycle. Those are constants
    ({!Dma.cycles_per_word}, {!Rc_array.reconfigure_cycles}). A [Config.t]
    holds what a design point varies: the frame-buffer set size (Table 1
    sweeps it between 1K and 8K words per set), and, for design-space
    exploration, the context-memory capacity and the DMA setup cost. *)

type t = {
  fb_set_size : int;  (** words available in ONE frame-buffer set *)
  cm_capacity : int;  (** context words the context memory can hold *)
  dma_setup_cycles : int;
      (** fixed per-transfer channel setup cost (descriptor fetch, external
          row activation); 0 models the paper's pure streaming assumption *)
}

val m1 : fb_set_size:int -> t
(** [m1 ~fb_set_size] is the first MorphoSys implementation: a
    2048-context-word context memory and no DMA setup cost. Only the
    frame-buffer size is left free because Table 1 sweeps it. *)

val make :
  ?cm_capacity:int -> ?dma_setup_cycles:int -> fb_set_size:int -> unit -> t
(** General constructor with M1 defaults.
    @raise Invalid_argument when {!validate} fails. *)

val max_quantity : int
(** [2^20]: the largest word count (FB set, CM, data object, kernel
    contexts), cycle count (kernel execution) or DMA setup cost any input
    may carry. A word costs one DMA cycle, so one transfer costs below
    [2^21] cycles; with iterations at most [2^16]
    ({!Kernel_ir.Application.check}) a round of it costs below [2^37], and
    every product the schedulers, [Step_builder.estimate] and the executor
    form stays below [2^37], far under [max_int] ([2^62 - 1]). *)

val validate : t -> (unit, string) result
(** Checks internal consistency of the configuration: sizes positive,
    setup cost non-negative; FB set size, CM capacity and setup cost at
    most {!max_quantity}. *)

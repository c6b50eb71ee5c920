(** Parameters of the MorphoSys M1 target.

    The schedulers never hard-code machine constants: everything they need
    (frame-buffer set size, context-memory capacity, DMA cost per word) comes
    from a [Config.t]. The paper's experiments vary the frame-buffer size
    between 1K and 8K words per set, so the same application can be scheduled
    against several configurations. *)

type t = {
  fb_set_size : int;  (** words available in ONE frame-buffer set *)
  cm_capacity : int;  (** context words the context memory can hold *)
  data_cycles_per_word : int;
      (** DMA cycles to move one data word between external memory and FB *)
  context_cycles_per_word : int;
      (** DMA cycles to move one context word from external memory to CM *)
  dma_setup_cycles : int;
      (** fixed per-transfer channel setup cost (descriptor fetch, external
          row activation); 0 models the paper's pure streaming assumption *)
  array_rows : int;  (** reconfigurable-cell array rows (8 on M1) *)
  array_cols : int;  (** reconfigurable-cell array columns (8 on M1) *)
}

val m1 : fb_set_size:int -> t
(** [m1 ~fb_set_size] is the first MorphoSys implementation: 8x8 RC array,
    single-cycle-per-word DMA, 2048-context-word context memory. Only the
    frame-buffer size is left free because Table 1 sweeps it. *)

val make :
  ?cm_capacity:int ->
  ?data_cycles_per_word:int ->
  ?context_cycles_per_word:int ->
  ?dma_setup_cycles:int ->
  ?array_rows:int ->
  ?array_cols:int ->
  fb_set_size:int ->
  unit ->
  t
(** General constructor with M1 defaults.
    @raise Invalid_argument when {!validate} fails. *)

val max_quantity : int
(** [2^20]: the largest word count (FB set, CM, data object, kernel
    contexts), cycle count (kernel execution) or DMA setup cost any input
    may carry. With per-word DMA costs and array dimensions at most
    [2^10] ({!validate}) and iterations at most [2^16]
    ({!Kernel_ir.Application.check}), one transfer costs below [2^31]
    cycles, a round of it below [2^47], and every product the schedulers,
    [Step_builder.estimate] and the executor form stays below [2^47], far
    under [max_int] ([2^62 - 1]). *)

val validate : t -> (unit, string) result
(** Checks internal consistency of the configuration: sizes and
    per-word costs positive, setup cost non-negative; FB set size, CM
    capacity and setup cost at most {!max_quantity}; per-word costs and
    array dimensions at most [2^10]. *)

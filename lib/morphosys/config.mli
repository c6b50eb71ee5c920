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
    @raise Invalid_argument on non-positive sizes or costs. *)

val validate : t -> (unit, string) result
(** Checks internal consistency of the configuration. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

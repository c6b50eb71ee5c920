(** A data object: a block of words flowing through the application.

    Data objects cover the three roles in the paper's terminology:
    - *external data*: producer is [External]; loaded from external memory;
    - *intermediate results*: producer is a kernel, consumed by later
      kernels, not [final];
    - *final results*: producer is a kernel and [final] is set; they must
      reach external memory (they may additionally have consumers, in which
      case they are also reused on chip).

    Sizes are per application iteration, in frame-buffer words; they are
    known at compilation time for the targeted multimedia applications. *)

type producer = External | Produced_by of Kernel.id

type t = {
  id : int;
  name : string;
  size : int;  (** frame-buffer words per iteration *)
  producer : producer;
  consumers : Kernel.id list;  (** sorted, strictly increasing *)
  final : bool;  (** must be stored back to external memory *)
  invariant : bool;
      (** iteration-invariant constant table (quantisation matrices, filter
          coefficients): one copy serves every iteration, so it is loaded
          once per consumer cluster per round — or, when retained, once for
          the whole run — and never multiplied by the reuse factor *)
}

val check : t -> Diag.t list
(** Every violation of the per-object rules, as [Invalid_app]
    diagnostics: non-negative id, non-empty name, size in
    [1 .. Morphosys.Config.max_quantity] ([2^20] words); external
    data must have consumers; a produced result must be consumed or final;
    a kernel cannot consume its own result; consumers of a produced result
    come after the producer; only external data can be [invariant];
    [consumers] sorted and unique. Kernel-id ranges need the application
    and are checked by {!Application.check}. [[]] for a well-formed
    object. *)

val make :
  ?invariant:bool ->
  id:int ->
  name:string ->
  size:int ->
  producer:producer ->
  consumers:Kernel.id list ->
  final:bool ->
  unit ->
  t
(** Normalises [consumers] (sorts, dedups), then validates with {!check}.
    @raise Invalid_argument with the first diagnostic of {!check}. *)

val instance_iter : t -> int -> int
(** The iteration index identifying this object's FB instance: the global
    iteration for ordinary data, always 0 for invariant tables. *)

val is_external : t -> bool
val first_consumer : t -> Kernel.id option
val last_consumer : t -> Kernel.id option
val consumed_by : t -> Kernel.id -> bool
val producer_kernel : t -> Kernel.id option
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** DMA transfer descriptors and their cost model.

    MorphoSys has a single DMA channel bridging external memory with both the
    frame buffer and the context memory, so data and context transfers can
    never happen simultaneously — they serialise on the channel. A transfer's
    cost in cycles depends only on its word count and the per-word cost of
    its kind. *)

type direction = Load | Store
(** [Load]: external memory -> on chip. [Store]: on chip -> external. *)

type kind =
  | Data of { set : Frame_buffer.set; direction : direction }
      (** data or result words moving between external memory and an FB set *)
  | Context  (** context words moving into the context memory *)

type t = { label : string; kind : kind; words : int }
(** One DMA request. [label] identifies the object (data name, result name or
    kernel name for contexts). *)

val data_load : set:Frame_buffer.set -> label:string -> words:int -> t
val data_store : set:Frame_buffer.set -> label:string -> words:int -> t
val context_load : kernel:string -> words:int -> t

val cost : Config.t -> t -> int
(** Channel occupancy of the transfer, in cycles. *)

val total_cost : Config.t -> t list -> int
(** Serial cost of a batch: the channel processes requests one at a time. *)

val is_data : kind -> bool
val is_context : kind -> bool
val pp : Format.formatter -> t -> unit

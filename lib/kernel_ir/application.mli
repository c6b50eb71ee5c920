(** A complete application: an ordered kernel sequence, its data-flow, and
    the number of iterations the sequence is executed to process the whole
    input stream (paper §3: "composed of a sequence of kernels that are
    consecutively executed over a part of the input data, until all the data
    are processed"). *)

type t = private {
  name : string;
  kernels : Kernel.t array;  (** execution order; [kernels.(i).id = i] *)
  data : Data.t list;  (** every data object, ordered by id *)
  iterations : int;  (** total iterations [n] of the kernel sequence *)
}

val check :
  kernels:Kernel.t list -> data:Data.t list -> iterations:int -> Diag.t list
(** Every violation of the application rules, as [Invalid_app]
    diagnostics: [0 < iterations <= 2^16]; a non-empty kernel sequence whose ids are
    exactly [0 .. len-1] in order; {!Kernel.check} and {!Data.check} of
    every element; unique kernel names, data names and data ids; every
    producer/consumer id refers to an existing kernel. [[]] exactly when
    {!make} accepts the ingredients. Never raises. *)

val make :
  name:string -> kernels:Kernel.t list -> data:Data.t list -> iterations:int -> t
(** @raise Invalid_argument with the first diagnostic of {!check}. *)

val n_kernels : t -> int
val kernel : t -> Kernel.id -> Kernel.t
(** @raise Invalid_argument on out-of-range id. *)

val kernel_by_name : t -> string -> Kernel.t
(** @raise Invalid_argument naming the missing kernel and the app. *)

val kernel_by_name_opt : t -> string -> Kernel.t option

val data_by_name : t -> string -> Data.t
(** @raise Invalid_argument naming the missing data object and the app. *)

val data_by_name_opt : t -> string -> Data.t option

val inputs_of : t -> Kernel.id -> Data.t list
(** Data objects consumed by the kernel, ordered by data id. *)

val outputs_of : t -> Kernel.id -> Data.t list
(** Data objects produced by the kernel, ordered by data id. *)

val external_data : t -> Data.t list
val final_results : t -> Data.t list

val total_data_words : t -> int
(** Total words of all data objects per iteration — the paper's TDS
    (total data and result sizes) denominator of the TF factor. *)

val total_context_words : t -> int
val pp : Format.formatter -> t -> unit

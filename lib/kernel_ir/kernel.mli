(** A kernel — one of the macro-tasks an application is composed of.

    At the abstraction level the schedulers work on, a kernel is
    characterised by its contexts and its input and output data (paper §1).
    Data edges live in {!Data}; a kernel itself carries only its identity,
    context-word count and per-iteration execution time. *)

type id = int
(** A kernel's position in the application's execution order (0-based). *)

type t = {
  id : id;
  name : string;
  contexts : int;  (** context words needed to configure the RC array *)
  exec_cycles : int;  (** RC-array cycles for one iteration *)
}

val check : t -> Diag.t list
(** Every violation of the per-kernel rules, as [Invalid_app]
    diagnostics: non-negative id, non-empty name, contexts and cycles in
    [1 .. Morphosys.Config.max_quantity] ([2^20]). [[]] for a well-formed
    kernel. *)

val make : id:id -> name:string -> contexts:int -> exec_cycles:int -> t
(** @raise Invalid_argument with the first diagnostic of {!check}. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

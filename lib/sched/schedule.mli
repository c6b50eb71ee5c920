(** The common schedule representation every scheduler produces and the
    simulator consumes.

    A schedule is a sequence of *steps*. A step either executes one cluster
    for a number of consecutive iterations (the reuse factor RF), with a
    batch of DMA transfers overlapped with the computation, or is a pure
    DMA step (transfers that could not be overlapped, e.g. because they
    target the frame-buffer set the next computation needs and no
    computation runs on the other set meanwhile).

    Transfer labels follow the convention ["<data-name>@<iteration>"] so the
    validator can relate transfers to IR objects ({!instance_label} /
    {!parse_label}). *)

type computation = {
  cluster : Kernel_ir.Cluster.t;
  round : int;  (** 0-based round index *)
  iterations : int;  (** iterations executed consecutively (<= RF) *)
  compute_cycles : int;
      (** RC-array busy time for the step: iteration work plus the
          per-round reconfiguration broadcasts *)
}

type step = {
  compute : computation option;
  dma : Morphosys.Dma.t list;  (** serviced serially by the single channel *)
  note : string;  (** human-readable purpose, for traces *)
}

type t = {
  scheduler : string;  (** "basic" | "ds" | "cds" | ... *)
  app : Kernel_ir.Application.t;
  clustering : Kernel_ir.Cluster.clustering;
  rf : int;  (** context reuse factor the schedule was built with *)
  cross_set : bool;
      (** future-work mode: clusters may read data retained in the other FB
          set, so residency is checked across both sets *)
  steps : step list;
}

val instance_label : string -> iter:int -> string
(** [instance_label "d1" ~iter:3] is ["d1@3"]: the same bytes as
    [Printf.sprintf "%s@%d"], built without the format machinery (one
    label is rendered per data transfer). *)

val parse_label : string -> (string * int) option
(** Inverse of {!instance_label}; [None] for labels without an ["@"] (e.g.
    context transfers). *)

val data_words_loaded : t -> int
val data_words_stored : t -> int
val total_dma_words : t -> int
val n_steps : t -> int
val rounds : t -> int
(** Number of rounds implied by [rf] and the application's iterations. *)

val iterations_in_round : t -> int -> int
(** [iterations_in_round t r]: RF for every round but possibly the last. *)

val pp_summary : Format.formatter -> t -> unit
val pp : Format.formatter -> t -> unit
(** Full step-by-step dump. *)

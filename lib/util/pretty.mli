(** Pretty-printing helpers shared by the trace renderer and the benchmark
    harness (table layout, size formatting). *)

val kbytes : int -> string
(** [kbytes words] renders a word count as "0.3K", "2K", "768" in the style
    of the paper's Table 1 (K = 1024 words). *)

val pct : float -> string
(** [pct f] renders a percentage with no decimals, e.g. "45%". *)

val table :
  header:string list -> rows:string list list -> Format.formatter -> unit
(** [table ~header ~rows fmt] prints an aligned ASCII table with a rule
    under the header. Every row must have the same arity as the header. *)

val bar : width:int -> float -> float -> string
(** [bar ~width value max] renders a horizontal bar chart cell of
    proportional length, used for the Figure 6 reproduction. *)

(** Textual reproduction of the paper's Table 1 and Figure 6: runs the
    Basic, Data and Complete Data Schedulers over the twelve experiments
    and prints measured-vs-paper numbers. Shared by the benchmark harness
    and the [msched] CLI. *)

type row = {
  experiment : Workloads.Table1.experiment;
  comparison : Cds.Pipeline.comparison;
}

val run_rows : unit -> row list
(** Schedule and simulate all twelve experiments. *)

val table1 : row list -> unit
(** Print the Table 1 reproduction to stdout. *)

val to_csv : row list -> string
(** Machine-readable export (one line per experiment, measured and paper
    columns) for downstream plotting. *)

val run : unit -> row list
(** Print Table 1, Figure 6 and the MPEG-at-1K feasibility check (paper
    §6), in paper order. *)

(** Value Change Dump (IEEE 1364) export of a schedule's timeline, so the
    machine's activity can be inspected in any waveform viewer (GTKWave
    etc.).

    Signals:
    - [rc_busy]    (1 bit): the RC array is computing;
    - [dma_busy]   (1 bit): the DMA channel is transferring;
    - [cluster]    (8 bit): id of the computing cluster (xx when idle);
    - [round]      (16 bit): current round (xx when idle);
    - [dma_words]  (32 bit): words moved by the step's transfer batch.

    One timescale unit is one machine cycle. *)

val of_schedule : Morphosys.Config.t -> Sched.Schedule.t -> string
(** Render the full VCD document for the schedule's execution. *)

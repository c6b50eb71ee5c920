(** A small textual format for applications, so workloads can be described
    in files instead of OCaml code:

    {v
    # MPEG-like pipeline
    app demo iterations 16

    kernel iq    contexts 384 cycles 520
    kernel idct  contexts 384 cycles 560

    input  coeff   size 256 -> iq
    input  hdr     size 56  -> iq idct
    result dequant size 320 from iq -> idct
    final  out     size 256 from idct

    partition 1 1
    fb 1024
    cm 2048
    v}

    Grammar (one directive per line, [#] comments):
    - [app NAME iterations N] — must appear first;
    - [kernel NAME contexts N cycles N] — in execution order;
    - [input NAME size N [invariant] -> CONSUMER...] — external data;
      [invariant] marks an iteration-invariant constant table;
    - [result NAME size N from PRODUCER -> CONSUMER... [final]] — a kernel
      result, optionally also stored to external memory;
    - [final NAME size N from PRODUCER] — a pure final result;
    - [partition N N ...] — optional kernel schedule;
    - [fb N] / [cm N] — optional machine sizes. *)

type spec = {
  app : Kernel_ir.Application.t;
  partition : int list option;
  fb_set_size : int option;
  cm_capacity : int option;
}

val parse : string -> (spec, string) result
(** Never raises: every failure is an [Error] (property-tested on mutated
    text), and one in a directive carries its line number. A [kernel]
    must pass [Kernel_ir.Kernel.check] and not repeat an earlier kernel's
    name, every kernel a data line names must be declared somewhere in
    the spec, a [partition] must pass
    [Kernel_ir.Cluster.check_partition] against the kernel count, and
    [fb] / [cm] must pass [Morphosys.Config.validate], so building the
    clustering and machine from a parsed spec never raises either. *)

val load_file : string -> (spec, string) result

val render : spec -> string
(** Pretty-print a spec back to the textual format ([parse] of the result
    yields an equivalent spec — property-tested). *)

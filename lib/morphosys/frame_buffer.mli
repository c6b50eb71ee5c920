(** The two MorphoSys frame-buffer sets: the RC array computes out of one
    set while the DMA fills/drains the other. Placement inside a set is
    [Fb_alloc.Layout]'s; the schedule validator ([Msim.Validate]) keeps its
    own residency table. This module only names the sets. *)

type set = Set_a | Set_b

val other : set -> set
val set_to_string : set -> string
val pp_set : Format.formatter -> set -> unit

(** 32-bit context words configuring a reconfigurable cell.

    A context selects the ALU operation, the two operand sources, the
    destination register and whether the result is driven onto the
    frame-buffer column bus. MorphoSys broadcasts one context word to a
    whole row or column per cycle, so every selected cell executes the same
    context on its own local data. This module is the word format alone:
    the functional array simulator that once executed these words is gone,
    since no scheduler result depends on it. *)

type src =
  | Reg of int  (** one of the cell's four registers *)
  | Imm of int  (** 12-bit signed immediate, [-2048, 2047] *)
  | North | South | East | West
      (** the neighbouring cell's output register (0 at the array edge) *)
  | Fb_port  (** the frame-buffer bus value for the cell's column *)

type alu_op =
  | Add | Sub | Mul
  | Mac  (** dst <- dst + a * b *)
  | Band | Bor | Bxor
  | Shl | Shr  (** a shifted by (b land 31) *)
  | Min | Max
  | Abs_diff  (** |a - b| *)
  | Pass_a  (** dst <- a *)

type t = {
  op : alu_op;
  src_a : src;
  src_b : src;
  dst : int;  (** destination register, 0..3 *)
  fb_write : bool;  (** drive the result onto the FB column bus *)
}

val make : ?fb_write:bool -> alu_op -> src -> src -> dst:int -> t
(** @raise Invalid_argument on a bad register index, an out-of-range
    immediate, or an immediate in the [src_a] position (only the second
    operand has immediate bits in the encoding). *)

val encode : t -> int32
(** Pack into the 32-bit context-word format. *)

val decode : int32 -> (t, string) result
(** Inverse of {!encode}; rejects malformed words. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(* Context words are broadcast one row of the 8x8 array per cycle. *)
let rows = 8

let reconfigure_cycles ~contexts =
  if contexts < 0 then invalid_arg "Rc_array.reconfigure_cycles: negative";
  (contexts + rows - 1) / rows

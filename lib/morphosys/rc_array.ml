(* Cycles to broadcast one context word to a row or column of the array. *)
let broadcast_cycles (_ : Config.t) = 1

let reconfigure_cycles config ~contexts =
  if contexts < 0 then invalid_arg "Rc_array.reconfigure_cycles: negative";
  (* Context words broadcast to a whole row or column at once. *)
  let rows = config.Config.array_rows in
  (contexts + rows - 1) / rows * broadcast_cycles config

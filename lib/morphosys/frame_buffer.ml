type set = Set_a | Set_b

let other = function Set_a -> Set_b | Set_b -> Set_a
let set_to_string = function Set_a -> "A" | Set_b -> "B"
let pp_set fmt s = Format.pp_print_string fmt (set_to_string s)

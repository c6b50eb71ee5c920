type direction = Load | Store

type kind =
  | Data of { set : Frame_buffer.set; direction : direction }
  | Context

type t = { label : string; kind : kind; words : int }

let check_words words =
  if words <= 0 then invalid_arg "Dma: transfer words must be positive"

(* The four data kinds are immutable constants, shared by every transfer
   of that set and direction instead of allocated once per transfer. *)
let load_a = Data { set = Frame_buffer.Set_a; direction = Load }
let load_b = Data { set = Frame_buffer.Set_b; direction = Load }
let store_a = Data { set = Frame_buffer.Set_a; direction = Store }
let store_b = Data { set = Frame_buffer.Set_b; direction = Store }

let data_load ~set ~label ~words =
  check_words words;
  let kind = match set with Frame_buffer.Set_a -> load_a | Set_b -> load_b in
  { label; kind; words }

let data_store ~set ~label ~words =
  check_words words;
  let kind = match set with Frame_buffer.Set_a -> store_a | Set_b -> store_b in
  { label; kind; words }

let context_load ~kernel ~words =
  check_words words;
  { label = kernel; kind = Context; words }

let cost (config : Config.t) t =
  config.dma_setup_cycles
  +
  match t.kind with
  | Data _ -> t.words * config.data_cycles_per_word
  | Context -> t.words * config.context_cycles_per_word

let total_cost config transfers =
  Msutil.Listx.sum_by (cost config) transfers

let is_data = function Data _ -> true | Context -> false
let is_context = function Context -> true | Data _ -> false

let pp fmt t =
  match t.kind with
  | Data { set; direction = Load } ->
    Format.fprintf fmt "load %s (%dw) -> FB:%a" t.label t.words
      Frame_buffer.pp_set set
  | Data { set; direction = Store } ->
    Format.fprintf fmt "store %s (%dw) <- FB:%a" t.label t.words
      Frame_buffer.pp_set set
  | Context -> Format.fprintf fmt "ctx %s (%dw) -> CM" t.label t.words

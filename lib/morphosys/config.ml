type t = {
  fb_set_size : int;
  cm_capacity : int;
  data_cycles_per_word : int;
  context_cycles_per_word : int;
  dma_setup_cycles : int;
  array_rows : int;
  array_cols : int;
}

let max_quantity = 1 lsl 20

(* per-word DMA costs and array dimensions *)
let max_factor = 1 lsl 10

let validate t =
  if t.fb_set_size <= 0 then Error "fb_set_size must be positive"
  else if t.cm_capacity <= 0 then Error "cm_capacity must be positive"
  else if t.data_cycles_per_word <= 0 then
    Error "data_cycles_per_word must be positive"
  else if t.context_cycles_per_word <= 0 then
    Error "context_cycles_per_word must be positive"
  else if t.dma_setup_cycles < 0 then Error "dma_setup_cycles must be >= 0"
  else if t.array_rows <= 0 || t.array_cols <= 0 then
    Error "array dimensions must be positive"
  else
    match
      List.find_opt
        (fun (_, n, bound) -> n > bound)
        [
          ("fb_set_size", t.fb_set_size, max_quantity);
          ("cm_capacity", t.cm_capacity, max_quantity);
          ("data_cycles_per_word", t.data_cycles_per_word, max_factor);
          ("context_cycles_per_word", t.context_cycles_per_word, max_factor);
          ("dma_setup_cycles", t.dma_setup_cycles, max_quantity);
          ("array dimensions", max t.array_rows t.array_cols, max_factor);
        ]
    with
    | Some (what, _, bound) ->
      Error (Printf.sprintf "%s must be at most %d" what bound)
    | None -> Ok ()

let make ?(cm_capacity = 2048) ?(data_cycles_per_word = 1)
    ?(context_cycles_per_word = 1) ?(dma_setup_cycles = 0) ?(array_rows = 8)
    ?(array_cols = 8) ~fb_set_size () =
  let t =
    {
      fb_set_size;
      cm_capacity;
      data_cycles_per_word;
      context_cycles_per_word;
      dma_setup_cycles;
      array_rows;
      array_cols;
    }
  in
  match validate t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Config.make: " ^ msg)

let m1 ~fb_set_size = make ~fb_set_size ()

let pp fmt t =
  Format.fprintf fmt
    "@[<h>{fb_set=%dw; cm=%dw; dma=%d/%d cyc/w +%d; array=%dx%d}@]"
    t.fb_set_size t.cm_capacity t.data_cycles_per_word
    t.context_cycles_per_word t.dma_setup_cycles t.array_rows t.array_cols

let equal (a : t) (b : t) = a = b

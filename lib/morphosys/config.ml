type t = { fb_set_size : int; cm_capacity : int; dma_setup_cycles : int }

let max_quantity = 1 lsl 20

let validate t =
  if t.fb_set_size <= 0 then Error "fb_set_size must be positive"
  else if t.cm_capacity <= 0 then Error "cm_capacity must be positive"
  else if t.dma_setup_cycles < 0 then Error "dma_setup_cycles must be >= 0"
  else
    match
      List.find_opt
        (fun (_, n) -> n > max_quantity)
        [
          ("fb_set_size", t.fb_set_size);
          ("cm_capacity", t.cm_capacity);
          ("dma_setup_cycles", t.dma_setup_cycles);
        ]
    with
    | Some (what, _) ->
      Error (Printf.sprintf "%s must be at most %d" what max_quantity)
    | None -> Ok ()

let make ?(cm_capacity = 2048) ?(dma_setup_cycles = 0) ~fb_set_size () =
  let t = { fb_set_size; cm_capacity; dma_setup_cycles } in
  match validate t with
  | Ok () -> t
  | Error msg -> invalid_arg ("Config.make: " ^ msg)

let m1 ~fb_set_size = make ~fb_set_size ()

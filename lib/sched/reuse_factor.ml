let per_cluster ~fb_set_size ~footprint =
  if footprint <= 0 then fb_set_size (* an (impossible) weightless cluster *)
  else fb_set_size / footprint

let common ~fb_set_size ~footprints ~iterations =
  if footprints = [] then invalid_arg "Reuse_factor.common: no clusters";
  let rf =
    List.fold_left
      (fun acc footprint -> min acc (per_cluster ~fb_set_size ~footprint))
      max_int footprints
  in
  max 0 (min rf iterations)

let common_split ~fb_set_size ~footprints ~iterations =
  if footprints = [] then invalid_arg "Reuse_factor.common_split: no clusters";
  let rf =
    List.fold_left
      (fun acc (per_iteration, constant) ->
        min acc (per_cluster ~fb_set_size:(fb_set_size - constant)
                   ~footprint:per_iteration))
      max_int footprints
  in
  max 0 (min rf iterations)

module IE = Kernel_ir.Info_extractor

(* [profiles] is indexed by cluster id. The loads never depend on the
   round, so one table serves round 0 and every later round. The stores
   are filled in place: an [Array.map] to fresh lists ([stored_everything]
   makes them) would start the array from a young list, which forces a
   minor collection once there are more than 256 clusters. *)
let selectors_of profiles ~stored_objects =
  let loads =
    Array.map (fun (p : IE.cluster_profile) -> p.IE.external_inputs) profiles
  in
  let stored = Array.make (Array.length profiles) [] in
  Array.iteri (fun id p -> stored.(id) <- stored_objects p) profiles;
  { Step_builder.first_loads = loads; later_loads = loads; stored }

let stored_outliving (p : IE.cluster_profile) = p.IE.outliving

let stored_everything (p : IE.cluster_profile) =
  List.concat_map
    (fun kp -> kp.IE.rout_objects @ List.map fst kp.IE.intermediate_objects)
    p.IE.kernel_profiles

let make_generators app clustering ~stored_objects =
  Step_builder.generators_of_selectors
    (selectors_of
       (Array.of_list (IE.profiles app clustering))
       ~stored_objects)

let plain app clustering =
  make_generators app clustering ~stored_objects:stored_outliving

let store_everything app clustering =
  make_generators app clustering ~stored_objects:stored_everything

let plain_selectors_ctx (analysis : Kernel_ir.Analysis.t) =
  selectors_of analysis.profiles ~stored_objects:stored_outliving

let plain_ctx analysis =
  Step_builder.generators_of_selectors (plain_selectors_ctx analysis)

let store_everything_selectors_ctx (analysis : Kernel_ir.Analysis.t) =
  selectors_of analysis.profiles ~stored_objects:stored_everything

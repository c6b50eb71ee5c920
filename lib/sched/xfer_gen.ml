module IE = Kernel_ir.Info_extractor

(* [profiles] is indexed by cluster id. Each cluster's stored objects are
   selected once here, not again for every execution that stores them. *)
let selectors_of profiles ~stored_objects =
  let stored = Array.map stored_objects profiles in
  {
    Step_builder.load_objects =
      (fun c ~round:_ -> profiles.(c.Kernel_ir.Cluster.id).IE.external_inputs);
    store_objects = (fun c ~round:_ -> stored.(c.Kernel_ir.Cluster.id));
  }

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

module IE = Kernel_ir.Info_extractor

let selectors_of ~profile_of ~stored_objects =
  {
    Step_builder.load_objects =
      (fun c ~round:_ -> (profile_of c).IE.external_inputs);
    store_objects = (fun c ~round:_ -> stored_objects (profile_of c));
  }

let generators_of ~profile_of ~stored_objects =
  Step_builder.generators_of_selectors (selectors_of ~profile_of ~stored_objects)

let make_generators app clustering ~stored_objects =
  let profiles = IE.profiles app clustering in
  let profile_of (c : Kernel_ir.Cluster.t) =
    List.nth profiles c.Kernel_ir.Cluster.id
  in
  generators_of ~profile_of ~stored_objects

let ctx_profile_of (analysis : Kernel_ir.Analysis.t) (c : Kernel_ir.Cluster.t) =
  Kernel_ir.Analysis.profile analysis c.Kernel_ir.Cluster.id

let stored_outliving (p : IE.cluster_profile) = p.IE.outliving

let stored_everything (p : IE.cluster_profile) =
  List.concat_map
    (fun kp -> kp.IE.rout_objects @ List.map fst kp.IE.intermediate_objects)
    p.IE.kernel_profiles

let plain app clustering =
  make_generators app clustering ~stored_objects:stored_outliving

let store_everything app clustering =
  make_generators app clustering ~stored_objects:stored_everything

let plain_ctx analysis =
  generators_of ~profile_of:(ctx_profile_of analysis)
    ~stored_objects:stored_outliving

let plain_selectors_ctx analysis =
  selectors_of
    ~profile_of:(ctx_profile_of analysis)
    ~stored_objects:stored_outliving

let store_everything_selectors_ctx analysis =
  selectors_of
    ~profile_of:(ctx_profile_of analysis)
    ~stored_objects:stored_everything

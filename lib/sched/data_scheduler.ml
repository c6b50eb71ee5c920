module IE = Kernel_ir.Info_extractor

(* The fraction of the FB set the [5] allocator packs usefully. *)
let alloc_efficiency = 0.85

let footprints app clustering =
  IE.profiles app clustering |> List.map (fun p -> Ds_formula.closed_form p)

let footprints_split app clustering =
  IE.profiles app clustering |> List.map (fun p -> Ds_formula.split p)

let packable_words (config : Morphosys.Config.t) =
  int_of_float (alloc_efficiency *. float_of_int config.fb_set_size)

let reuse_factor config app clustering =
  Reuse_factor.common_split ~fb_set_size:(packable_words config)
    ~footprints:(footprints_split app clustering)
    ~iterations:app.Kernel_ir.Application.iterations

(* Build one schedule per candidate reuse factor and keep the fastest; ties
   go to the larger RF. *)
let best_by_rf config ~rf_max ~build =
  List.fold_left
    (fun acc rf ->
      let schedule = build rf in
      let cycles = Schedule_cost.estimate config schedule in
      match acc with
      | Some (_, best_cycles) when best_cycles < cycles -> acc
      | _ -> Some (schedule, cycles))
    None
    (List.init rf_max (fun i -> i + 1))
  |> Option.get |> fst

let schedule_reference config app clustering =
  match Context_scheduler.plan_app config app clustering with
  | Error d -> Error ("ds: " ^ Diag.to_string d)
  | Ok ctx_plan -> (
    match reuse_factor config app clustering with
    | 0 ->
      Error
        (Printf.sprintf
           "ds: some cluster's DS(C)=%dw exceeds the packable %dw of the FB \
            set"
           (Msutil.Listx.max_by (fun x -> x) (footprints app clustering))
           (packable_words config))
    | rf_max ->
      Ok
        (best_by_rf config ~rf_max ~build:(fun rf ->
             Step_builder.build config app clustering ~rf ~ctx_plan
               ~generators:(Xfer_gen.plain app clustering)
               ~scheduler:"ds")))

let policy =
  {
    Step_builder.name = "ds";
    cross_set = false;
    rf_bound =
      (fun ctx config ->
        match
          Reuse_factor.common_split ~fb_set_size:(packable_words config)
            ~footprints:(Sched_ctx.splits_list ctx)
            ~iterations:(Sched_ctx.app ctx).Kernel_ir.Application.iterations
        with
        | 0 ->
          Error
            (Diag.v Diag.No_feasible_rf
               "some cluster's DS(C)=%dw exceeds the packable %dw of the FB \
                set"
               (Msutil.Listx.max_by (fun x -> x) (Sched_ctx.footprints_list ctx))
               (packable_words config))
        | rf_max -> Ok rf_max);
    selectors =
      (fun ctx _ ~rf:_ ->
        ((), Xfer_gen.plain_selectors_ctx (Sched_ctx.analysis ctx)));
  }

let () =
  Scheduler_registry.register
    {
      name = policy.name;
      describe =
        "Data Scheduler (ISSS'01): in-place replacement, loop fission, no \
         inter-cluster reuse";
      run =
        (fun ctx config -> Result.map fst (Step_builder.search policy ctx config));
    }

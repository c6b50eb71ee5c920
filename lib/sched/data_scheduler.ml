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

(* The tables and the footprint lists are the context's alone, so they are
   made once per bound context; only the RF bound reads the machine. *)
let policy =
  {
    Step_builder.name = "ds";
    cross_set = false;
    stage =
      (fun ctx ->
        let splits = Sched_ctx.splits_list ctx
        and footprints = Sched_ctx.footprints_list ctx
        and iterations = (Sched_ctx.app ctx).Kernel_ir.Application.iterations in
        let selectors = Xfer_gen.plain_selectors_ctx (Sched_ctx.analysis ctx) in
        let choice =
          {
            Step_builder.tally = Step_builder.tally selectors;
            chosen = (fun () -> ((), selectors));
          }
        in
        {
          Step_builder.rf_bound =
            (fun config ->
              match
                Reuse_factor.common_split ~fb_set_size:(packable_words config)
                  ~footprints:splits ~iterations
              with
              | 0 ->
                Error
                  (Diag.v Diag.No_feasible_rf
                     "some cluster's DS(C)=%dw exceeds the packable %dw of \
                      the FB set"
                     (Msutil.Listx.max_by (fun x -> x) footprints)
                     (packable_words config))
              | rf_max -> Ok rf_max);
          at_rf = (fun _ ~rf:_ -> choice);
        });
  }

let () =
  Scheduler_registry.register
    ~describe:
      "Data Scheduler (ISSS'01): in-place replacement, loop fission, no \
       inter-cluster reuse"
    policy

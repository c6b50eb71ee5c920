module IE = Kernel_ir.Info_extractor

let log_src = Logs.Src.create "sched" ~doc:"Data scheduler decisions"

module Log = (val Logs.src_log log_src)

let default_efficiency = 0.85

let footprints app clustering =
  IE.profiles app clustering |> List.map (fun p -> Ds_formula.closed_form p)

let footprints_split app clustering =
  IE.profiles app clustering |> List.map (fun p -> Ds_formula.split p)

let packable_words efficiency (config : Morphosys.Config.t) =
  if efficiency <= 0. || efficiency > 1. then
    invalid_arg "Data_scheduler: alloc_efficiency must be in (0, 1]";
  int_of_float (efficiency *. float_of_int config.fb_set_size)

let reuse_factor_of_splits ~alloc_efficiency (config : Morphosys.Config.t)
    ~iterations splits =
  Reuse_factor.common_split
    ~fb_set_size:(packable_words alloc_efficiency config)
    ~footprints:splits ~iterations

let reuse_factor ?(alloc_efficiency = default_efficiency)
    (config : Morphosys.Config.t) app clustering =
  reuse_factor_of_splits ~alloc_efficiency config
    ~iterations:app.Kernel_ir.Application.iterations
    (footprints_split app clustering)

(* Build one schedule per candidate reuse factor and keep the fastest (ties
   go to the larger RF, which frees more CM bandwidth). The largest
   memory-allowed RF is not always fastest: batching RF iterations of
   transfers can exceed what an imbalanced pipeline can hide. *)
let best_by_rf config ~rf_max ~build =
  let candidates = List.init rf_max (fun i -> i + 1) in
  let best =
    List.fold_left
      (fun acc rf ->
        let schedule = build rf in
        let cycles = Schedule_cost.estimate config schedule in
        match acc with
        | Some (_, best_cycles) when best_cycles < cycles -> acc
        | _ -> Some (schedule, cycles))
      None candidates
  in
  match best with
  | Some (schedule, cycles) ->
    Log.debug (fun m ->
        m "chose rf=%d (%d cycles) out of rf_max=%d"
          schedule.Schedule.rf cycles rf_max);
    schedule
  | None -> invalid_arg "Data_scheduler.best_by_rf: rf_max must be >= 1"

let schedule_reference ?(alloc_efficiency = default_efficiency) config app
    clustering =
  match Context_scheduler.plan_app config app clustering with
  | Error d -> Error ("ds: " ^ Diag.to_string d)
  | Ok ctx_plan -> (
    match reuse_factor ~alloc_efficiency config app clustering with
    | 0 ->
      Error
        (Printf.sprintf
           "ds: some cluster's DS(C)=%dw exceeds the packable %dw of the FB \
            set"
           (Msutil.Listx.max_by (fun x -> x) (footprints app clustering))
           (packable_words alloc_efficiency config))
    | rf_max ->
      Ok
        (best_by_rf config ~rf_max ~build:(fun rf ->
             Step_builder.build config app clustering ~rf ~ctx_plan
               ~generators:(Xfer_gen.plain app clustering)
               ~scheduler:"ds")))

let run_with ?(alloc_efficiency = default_efficiency) (ctx : Sched_ctx.t)
    (config : Morphosys.Config.t) =
  match Engine.Faults.hit "sched" with
  | exception Engine.Faults.Injected site ->
    Error
      (Diag.v ~scheduler:"ds" Diag.Fault_injected
         "injected fault at scheduler entry (%s)" site)
  | () -> (
  let app = Sched_ctx.app ctx and clustering = Sched_ctx.clustering ctx in
  match Context_scheduler.plan_of_analysis config (Sched_ctx.analysis ctx) with
  | Error d -> Error (Diag.with_scheduler "ds" d)
  | Ok ctx_plan -> (
    match
      reuse_factor_of_splits ~alloc_efficiency config
        ~iterations:app.Kernel_ir.Application.iterations
        (Sched_ctx.splits_list ctx)
    with
    | 0 ->
      Error
        (Diag.v ~scheduler:"ds" Diag.No_feasible_rf
           "some cluster's DS(C)=%dw exceeds the packable %dw of the FB set"
           (Msutil.Listx.max_by (fun x -> x) (Sched_ctx.footprints_list ctx))
           (packable_words alloc_efficiency config))
    | rf_max ->
      (* Same RF choice as [best_by_rf], but each candidate factor is
         costed with [Step_builder.estimate] (identical cycles) and only
         the winning schedule is materialised. *)
      let analysis = Sched_ctx.analysis ctx in
      let selectors = Xfer_gen.plain_selectors_ctx analysis in
      let best_rf, best_cycles =
        List.fold_left
          (fun acc rf ->
            let cycles =
              Step_builder.estimate config app clustering ~rf ~ctx_plan
                ~selectors
            in
            match acc with
            | Some (_, best_cycles) when best_cycles < cycles -> acc
            | _ -> Some (rf, cycles))
          None
          (List.init rf_max (fun i -> i + 1))
        |> Option.get
      in
      Log.debug (fun m ->
          m "chose rf=%d (%d cycles) out of rf_max=%d" best_rf best_cycles
            rf_max);
      Ok
        (Step_builder.build config app clustering ~rf:best_rf ~ctx_plan
           ~generators:(Xfer_gen.plain_ctx analysis)
           ~scheduler:"ds")))

let run ctx config = run_with ctx config

let scheduler : Scheduler_intf.t =
  (module struct
    let name = "ds"

    let describe =
      "Data Scheduler (ISSS'01): in-place replacement, loop fission, no \
       inter-cluster reuse"

    let run = run
  end)

let () = Scheduler_registry.register scheduler

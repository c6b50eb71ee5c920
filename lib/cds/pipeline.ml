type scheduled = { schedule : Sched.Schedule.t; metrics : Msim.Metrics.t }

let default_ladder = [ "cds"; "ds"; "basic" ]

type degradation = {
  delivered : string option;
  chain : (string * Diag.t) list;
  fallback : scheduled option;
}

type comparison = {
  app : Kernel_ir.Application.t;
  config : Morphosys.Config.t;
  clustering : Kernel_ir.Cluster.clustering;
  basic : (scheduled, string) result;
  ds : (scheduled, string) result;
  cds : (scheduled * Complete_data_scheduler.result, string) result;
  degradation : degradation option;
}

let simulate ~validate config schedule =
  if validate then Msim.Validate.check_exn schedule;
  { schedule; metrics = Msim.Executor.run config schedule }

let run ?(validate = true) ?(retention = true) ?(cross_set = false)
    ?(degrade = false) ?(ladder = default_ladder) config app clustering =
  (* one analysis context serves every scheduler in the registry *)
  let ctx = Sched.Sched_ctx.make app clustering in
  (* Graceful mode: nothing raises. Validation failures (and any other
     exception a tier's path throws) become that tier's diagnostic and
     the comparison records the degradation chain down the ladder
     (default CDS -> DS -> Basic). Otherwise a validation failure raises. *)
  let sim ~scheduler schedule =
    if degrade then
      Diag.protect ~scheduler ~code:Diag.Sim_divergence (fun () ->
          simulate ~validate config schedule)
    else Ok (simulate ~validate config schedule)
  in
  let tier name =
    Result.bind
      (Sched.Scheduler_registry.run name ctx config)
      (sim ~scheduler:name)
  in
  let basic = tier "basic" in
  let ds = tier "ds" in
  let cds =
    Result.bind
      (Complete_data_scheduler.run_full ~retention ~cross_set ctx config)
      (fun (r : Complete_data_scheduler.result) ->
        Result.map
          (fun s -> (s, r))
          (sim ~scheduler:"cds" r.Complete_data_scheduler.schedule))
  in
  let degradation =
    if not degrade then None
    else
      (* The three standard tiers above are reused when the ladder names
         them; any other name dispatches through the registry, so a custom
         ladder (say ["cds-xset"; "ds"]) degrades — and reports — exactly
         the tiers the caller asked for. *)
      let attempt = function
        | "basic" -> basic
        | "ds" -> ds
        | "cds" -> Result.map fst cds
        | name -> tier name
      in
      let rec walk acc = function
        | [] -> { delivered = None; chain = List.rev acc; fallback = None }
        | name :: rest -> (
          match attempt name with
          | Ok s ->
            { delivered = Some name; chain = List.rev acc; fallback = Some s }
          | Error d -> walk ((name, d) :: acc) rest)
      in
      Some (walk [] ladder)
  in
  {
    app;
    config;
    clustering;
    basic = Result.map_error Diag.to_string basic;
    ds = Result.map_error Diag.to_string ds;
    cds = Result.map_error Diag.to_string cds;
    degradation;
  }

let degraded_schedule t =
  match t.degradation with
  | Some { delivered = Some name; fallback = Some s; _ } -> Some (name, s)
  | _ -> None

let pp_degradation fmt d =
  List.iter
    (fun (name, diag) ->
      Format.fprintf fmt "%s unavailable: %s@." name (Diag.render diag))
    d.chain;
  match d.delivered with
  | Some name -> Format.fprintf fmt "delivered by %s@." name
  | None -> Format.fprintf fmt "no scheduler tier is feasible@."

let improvement t which =
  match (t.basic, which) with
  | Error _, _ -> None
  | Ok baseline, `Ds ->
    Result.to_option t.ds
    |> Option.map (fun s ->
           Msim.Metrics.improvement_over ~baseline:baseline.metrics s.metrics)
  | Ok baseline, `Cds ->
    Result.to_option t.cds
    |> Option.map (fun (s, _) ->
           Msim.Metrics.improvement_over ~baseline:baseline.metrics s.metrics)

let ds_rf t =
  match t.cds with
  | Ok (_, r) -> Some r.Complete_data_scheduler.rf
  | Error _ -> (
    match t.ds with
    | Ok s -> Some s.schedule.Sched.Schedule.rf
    | Error _ -> None)

let dt_words t =
  match t.cds with
  | Ok (_, r) ->
    Some r.Complete_data_scheduler.data_words_avoided_per_iteration
  | Error _ -> None

let auto_clustering ?(scheduler = "cds") config app =
  Sched.Kernel_scheduler.best app ~eval:(fun clustering ->
      match
        Sched.Scheduler_registry.run scheduler
          (Sched.Sched_ctx.make app clustering)
          config
      with
      | Ok s -> Some (Msim.Executor.run config s).Msim.Metrics.total_cycles
      | Error _ -> None)

let allocation_report config app clustering =
  let ctx = Sched.Sched_ctx.make app clustering in
  Result.map
    (fun (r : Complete_data_scheduler.result) ->
      Allocation_algorithm.run ~analysis:(Sched.Sched_ctx.analysis ctx) config
        app clustering ~rf:r.Complete_data_scheduler.rf
        ~retention:r.Complete_data_scheduler.retention ~round:0)
    (Result.map_error Diag.to_string
       (Complete_data_scheduler.run_full ctx config))

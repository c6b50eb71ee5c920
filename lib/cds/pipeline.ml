type scheduled = { schedule : Sched.Schedule.t; metrics : Msim.Metrics.t }

type comparison = {
  app : Kernel_ir.Application.t;
  config : Morphosys.Config.t;
  clustering : Kernel_ir.Cluster.clustering;
  basic : (scheduled, string) result;
  ds : (scheduled, string) result;
  cds : (scheduled * Complete_data_scheduler.result, string) result;
}

let simulate config schedule =
  Msim.Validate.check_exn schedule;
  { schedule; metrics = Msim.Executor.run config schedule }

let run ?(retention = true) ?(cross_set = false) config app clustering =
  (* one analysis context serves every scheduler *)
  let ctx = Sched.Sched_ctx.make app clustering in
  let tier name =
    Result.map (simulate config) (Sched.Scheduler_registry.run name ctx config)
  in
  let basic = tier "basic" in
  let ds = tier "ds" in
  let cds =
    Result.map
      (fun (r : Complete_data_scheduler.result) ->
        (simulate config r.Complete_data_scheduler.schedule, r))
      (Complete_data_scheduler.run_full ~retention ~cross_set ctx config)
  in
  {
    app;
    config;
    clustering;
    basic = Result.map_error Diag.to_string basic;
    ds = Result.map_error Diag.to_string ds;
    cds = Result.map_error Diag.to_string cds;
  }

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
  | Ok (_, r) -> Some r.Complete_data_scheduler.schedule.Sched.Schedule.rf
  | Error _ -> (
    match t.ds with
    | Ok s -> Some s.schedule.Sched.Schedule.rf
    | Error _ -> None)

let dt_words t =
  match t.cds with
  | Ok (_, r) ->
    Some
      r.Complete_data_scheduler.retention.Retention.avoided_words_per_iteration
  | Error _ -> None

let auto_clustering config app =
  Sched.Kernel_scheduler.best app ~eval:(fun clustering ->
      match
        Sched.Scheduler_registry.run "cds"
          (Sched.Sched_ctx.make app clustering)
          config
      with
      | Ok s -> Some (Msim.Executor.run config s).Msim.Metrics.total_cycles
      | Error _ -> None)

let allocation_report config app clustering =
  let ctx = Sched.Sched_ctx.make app clustering in
  Result.map
    (fun (r : Complete_data_scheduler.result) ->
      Allocation_algorithm.run config ~analysis:(Sched.Sched_ctx.analysis ctx)
        ~rf:r.Complete_data_scheduler.schedule.Sched.Schedule.rf
        ~retention:r.Complete_data_scheduler.retention ~round:0)
    (Result.map_error Diag.to_string
       (Complete_data_scheduler.run_full ctx config))

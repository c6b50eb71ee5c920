module IE = Kernel_ir.Info_extractor
module Data = Kernel_ir.Data

type result = { schedule : Sched.Schedule.t; retention : Retention.decision }

(* The list-based object choice behind [schedule_reference], evaluated for
   round 0 and for a later round. [profiles] is indexed by cluster id. *)
let reference_selectors profiles (decision : Retention.decision) =
  (* An object can have one retention candidate per FB set (the same shared
     datum may be retained in both sets), so the skip test quantifies over
     all retained candidates for the object. *)
  let skipped (d : Data.t) ~cluster_id ~skip =
    List.exists
      (fun c -> (Sharing.data c).Data.id = d.Data.id && skip c ~cluster_id)
      decision.retained
  in
  let load_objects ~round cluster_id (p : IE.cluster_profile) =
    let is_retained (d : Data.t) =
      List.exists
        (fun cand -> (Sharing.data cand).Data.id = d.Data.id)
        decision.retained
    in
    List.filter
      (fun (d : Data.t) ->
        (* a retained invariant table is loaded exactly once, by its first
           consumer cluster on round 0 *)
        if d.Data.invariant && is_retained d && round > 0 then false
        else
          not (skipped d ~cluster_id ~skip:Sharing.skips_load))
      p.IE.external_inputs
  in
  let store_objects cluster_id (p : IE.cluster_profile) =
    List.filter
      (fun d -> not (skipped d ~cluster_id ~skip:Sharing.skips_store))
      p.IE.outliving
  in
  {
    Sched.Step_builder.first_loads =
      Array.mapi (load_objects ~round:0) profiles;
    later_loads = Array.mapi (load_objects ~round:1) profiles;
    stored = Array.mapi store_objects profiles;
  }

(* Same object choice as [reference_selectors], but the retained
   candidates are bucketed by data id up front, so each retention test is
   O(bucket) — at most one candidate per FB set — instead of a scan of the
   whole retained list, and each cluster's rows are selected once per
   decision. *)
let selectors (analysis : Kernel_ir.Analysis.t) (decision : Retention.decision)
    =
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (cand : Sharing.t) ->
      let id = (Sharing.data cand).Data.id in
      let prev = try Hashtbl.find by_id id with Not_found -> [] in
      Hashtbl.replace by_id id (cand :: prev))
    decision.retained;
  let bucket (d : Data.t) =
    try Hashtbl.find by_id d.Data.id with Not_found -> []
  in
  (* Filled in place: an [Array.map] to fresh lists would start the array
     from a young list, which forces a minor collection once the table
     holds more than 256 clusters. A row that drops nothing is the
     profile's own list, so most rows add no young pointer to the table. *)
  let table row =
    let t = Array.make (Array.length analysis.profiles) [] in
    Array.iteri (fun id p -> t.(id) <- row id p) analysis.profiles;
    t
  in
  let without drop objects =
    if List.exists drop objects then
      List.filter (fun d -> not (drop d)) objects
    else objects
  in
  let kept ~skip cluster_id =
    without (fun d -> List.exists (fun c -> skip c ~cluster_id) (bucket d))
  in
  let first_loads =
    table (fun id (p : IE.cluster_profile) ->
        kept ~skip:Sharing.skips_load id p.IE.external_inputs)
  in
  (* a retained invariant table is loaded exactly once, by its first
     consumer cluster on round 0 *)
  let later_loads =
    if List.exists (fun c -> (Sharing.data c).Data.invariant) decision.retained
    then
      table (fun id _ ->
          without
            (fun (d : Data.t) -> d.Data.invariant && bucket d <> [])
            first_loads.(id))
    else first_loads
  in
  {
    Sched.Step_builder.first_loads;
    later_loads;
    stored =
      table (fun id (p : IE.cluster_profile) ->
          kept ~skip:Sharing.skips_store id p.IE.outliving);
  }

let schedule_reference ?(retention = true) ?(cross_set = false)
    (config : Morphosys.Config.t) app clustering =
  let scheduler_name = if cross_set then "cds-xset" else "cds" in
  match Sched.Context_scheduler.plan_app config app clustering with
  | Error d -> Error (scheduler_name ^ ": " ^ Diag.to_string d)
  | Ok ctx_plan -> (
    (* The CDS allocator packs the whole set (paper §5: minimal memory, no
       fragmentation), so its RF bound is computed against the full FB
       size; among the feasible factors the scheduler keeps the fastest
       (retention is recomputed per candidate — pinned copies scale with
       RF). *)
    match
      Sched.Reuse_factor.common_split ~fb_set_size:config.fb_set_size
        ~footprints:(Sched.Data_scheduler.footprints_split app clustering)
        ~iterations:app.Kernel_ir.Application.iterations
    with
    | 0 ->
      Error
        (Printf.sprintf "%s: some cluster's DS(C) exceeds the FB set of %dw"
           scheduler_name config.fb_set_size)
    | rf_max ->
      let candidate rf =
        let decision =
          if retention then
            Retention.choose ~cross_set config app clustering ~rf
          else Retention.none
        in
        let schedule =
          Sched.Step_builder.build ~cross_set config app clustering ~rf
            ~ctx_plan
            ~generators:
              (reference_selectors
                 (Array.of_list (IE.profiles app clustering))
                 decision)
            ~scheduler:scheduler_name
        in
        (schedule, decision)
      in
      let chosen, decision =
        (* keep the fastest; ties prefer the larger RF *)
        List.fold_left
          (fun acc rf ->
            let (schedule, _) as cand = candidate rf in
            let cycles = Sched.Schedule_cost.estimate config schedule in
            match acc with
            | Some (_, best_cycles) when best_cycles < cycles -> acc
            | _ -> Some (cand, cycles))
          None
          (List.init rf_max (fun i -> i + 1))
        |> Option.get |> fst
      in
      Ok { schedule = chosen; retention = decision })

(* The CDS allocator packs the whole set (paper §5: minimal memory, no
   fragmentation), so the RF bound is computed against the full FB size.
   Retention is recomputed per candidate RF, since pinned copies scale
   with RF; ablated, the decision is empty at every RF. *)
let policy ~retention ~cross_set =
  {
    Sched.Step_builder.name = (if cross_set then "cds-xset" else "cds");
    cross_set;
    rf_bound =
      (fun ctx (config : Morphosys.Config.t) ->
        match
          Sched.Reuse_factor.common_split ~fb_set_size:config.fb_set_size
            ~footprints:(Sched.Sched_ctx.splits_list ctx)
            ~iterations:
              (Sched.Sched_ctx.app ctx).Kernel_ir.Application.iterations
        with
        | 0 ->
          Error
            (Diag.v Diag.No_feasible_rf
               "some cluster's DS(C) exceeds the FB set of %dw"
               config.fb_set_size)
        | rf_max -> Ok rf_max);
    selectors =
      (fun ctx config ~rf ->
        let decision =
          if retention then Retention.choose_ctx ~cross_set config ctx ~rf
          else Retention.none
        in
        (decision, selectors (Sched.Sched_ctx.analysis ctx) decision));
  }

let run_full ?(retention = true) ?(cross_set = false) ctx config =
  Result.map
    (fun (schedule, retention) -> { schedule; retention })
    (Sched.Step_builder.search (policy ~retention ~cross_set) ctx config)

let () =
  List.iter
    (fun (cross_set, describe) ->
      Sched.Scheduler_registry.register ~describe
        (policy ~retention:true ~cross_set))
    [
      ( false,
        "Complete Data Scheduler (DATE'02): fragmentation-free allocation + \
         TF-driven retention of shared data" );
      ( true,
        "Complete Data Scheduler with the future-work cross-set reuse enabled"
      );
    ]

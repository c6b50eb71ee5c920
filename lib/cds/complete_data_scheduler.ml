module IE = Kernel_ir.Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data

type result = {
  schedule : Sched.Schedule.t;
  retention : Retention.decision;
  rf : int;
  data_words_avoided_per_iteration : int;
}

(* An object can have one retention candidate per FB set (the same shared
   datum may be retained in both sets), so the skip test quantifies over all
   retained candidates for the object. *)
let skipped retained (d : Data.t) ~cluster_id ~skip =
  List.exists
    (fun c -> (Sharing.data c).Data.id = d.Data.id && skip c ~cluster_id)
    retained

let selectors_of ~profile_of (decision : Retention.decision) =
  let load_objects (c : Cluster.t) ~round =
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
          not
            (skipped decision.retained d ~cluster_id:c.Cluster.id
               ~skip:Sharing.skips_load))
      (profile_of c).IE.external_inputs
  in
  let store_objects (c : Cluster.t) ~round:_ =
    List.filter
      (fun d ->
        not
          (skipped decision.retained d ~cluster_id:c.Cluster.id
             ~skip:Sharing.skips_store))
      (profile_of c).IE.outliving
  in
  { Sched.Step_builder.load_objects; store_objects }

let generators app clustering decision =
  let profiles = IE.profiles app clustering in
  Sched.Step_builder.generators_of_selectors
    (selectors_of
       ~profile_of:(fun (c : Cluster.t) -> List.nth profiles c.Cluster.id)
       decision)

let ctx_profile_of (analysis : Kernel_ir.Analysis.t) (c : Cluster.t) =
  Kernel_ir.Analysis.profile analysis c.Cluster.id

(* Same object choice as [selectors_of], but the retained candidates are
   bucketed by data id up front, so the per-object retention tests in the
   selector hot path are O(bucket) — at most one candidate per FB set —
   instead of a scan of the whole retained list. *)
let selectors_indexed ~profile_of (decision : Retention.decision) =
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
  let skipped d ~cluster_id ~skip =
    List.exists (fun c -> skip c ~cluster_id) (bucket d)
  in
  let load_objects (c : Cluster.t) ~round =
    List.filter
      (fun (d : Data.t) ->
        if d.Data.invariant && round > 0 && bucket d <> [] then false
        else
          not (skipped d ~cluster_id:c.Cluster.id ~skip:Sharing.skips_load))
      (profile_of c).IE.external_inputs
  in
  let store_objects (c : Cluster.t) ~round:_ =
    List.filter
      (fun d ->
        not (skipped d ~cluster_id:c.Cluster.id ~skip:Sharing.skips_store))
      (profile_of c).IE.outliving
  in
  { Sched.Step_builder.load_objects; store_objects }

let selectors_ctx analysis decision =
  selectors_indexed ~profile_of:(ctx_profile_of analysis) decision

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
            ~generators:(generators app clustering decision)
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
      Ok
        {
          schedule = chosen;
          retention = decision;
          rf = chosen.Sched.Schedule.rf;
          data_words_avoided_per_iteration =
            decision.Retention.avoided_words_per_iteration;
        })

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
        (decision, selectors_ctx (Sched.Sched_ctx.analysis ctx) decision));
  }

let run_full ?(retention = true) ?(cross_set = false) ctx config =
  Result.map
    (fun (schedule, decision) ->
      {
        schedule;
        retention = decision;
        rf = schedule.Sched.Schedule.rf;
        data_words_avoided_per_iteration =
          decision.Retention.avoided_words_per_iteration;
      })
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

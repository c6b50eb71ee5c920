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

let generators_of ~profile_of decision =
  Sched.Xfer_gen.generators_of_selectors (selectors_of ~profile_of decision)

let generators app clustering decision =
  let profiles = IE.profiles app clustering in
  generators_of
    ~profile_of:(fun (c : Cluster.t) -> List.nth profiles c.Cluster.id)
    decision

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

let generators_ctx analysis decision =
  Sched.Xfer_gen.generators_of_selectors (selectors_ctx analysis decision)

let schedule_reference ?(retention = true) ?(cross_set = false)
    (config : Morphosys.Config.t) app clustering =
  match Sched.Context_scheduler.plan_app config app clustering with
  | Error d -> Error ("cds: " ^ Diag.to_string d)
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
        (Printf.sprintf
           "cds: some cluster's DS(C) exceeds the FB set of %dw"
           config.fb_set_size)
    | rf_max ->
      let scheduler_name = if cross_set then "cds-xset" else "cds" in
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

let run_full ?(retention = true) ?(cross_set = false)
    (ctx : Sched.Sched_ctx.t) (config : Morphosys.Config.t) =
  match Engine.Faults.hit "sched" with
  | exception Engine.Faults.Injected site ->
    Error
      (Diag.v ~scheduler:"cds" Diag.Fault_injected
         "injected fault at scheduler entry (%s)" site)
  | () -> (
  let app = Sched.Sched_ctx.app ctx in
  let clustering = Sched.Sched_ctx.clustering ctx in
  let analysis = Sched.Sched_ctx.analysis ctx in
  match Sched.Context_scheduler.plan_of_analysis config analysis with
  | Error d -> Error (Diag.with_scheduler "cds" d)
  | Ok ctx_plan -> (
    match
      Sched.Reuse_factor.common_split ~fb_set_size:config.fb_set_size
        ~footprints:(Sched.Sched_ctx.splits_list ctx)
        ~iterations:app.Kernel_ir.Application.iterations
    with
    | 0 ->
      Error
        (Diag.v ~scheduler:"cds" Diag.No_feasible_rf
           "some cluster's DS(C) exceeds the FB set of %dw"
           config.fb_set_size)
    | rf_max ->
      let scheduler_name = if cross_set then "cds-xset" else "cds" in
      (* RF search without materialising a schedule per candidate factor:
         each RF is costed with [Step_builder.estimate] (exactly the
         cycles [Schedule_cost] would report for the built schedule) and
         only the winner is built. Retention ablated means the decision is
         RF-independent — computed once. *)
      let none_decision = if retention then None else Some Retention.none in
      let decision_for rf =
        match none_decision with
        | Some d -> d
        | None -> Retention.choose_ctx ~cross_set config ctx ~rf
      in
      let chosen_rf, decision =
        (* keep the fastest; ties prefer the larger RF *)
        List.fold_left
          (fun acc rf ->
            let decision = decision_for rf in
            let cycles =
              Sched.Step_builder.estimate config app clustering ~rf ~ctx_plan
                ~selectors:(selectors_ctx analysis decision)
            in
            match acc with
            | Some (_, _, best_cycles) when best_cycles < cycles -> acc
            | _ -> Some (rf, decision, cycles))
          None
          (List.init rf_max (fun i -> i + 1))
        |> Option.get
        |> fun (rf, d, _) -> (rf, d)
      in
      let chosen =
        Sched.Step_builder.build ~cross_set config app clustering
          ~rf:chosen_rf ~ctx_plan
          ~generators:(generators_ctx analysis decision)
          ~scheduler:scheduler_name
      in
      Ok
        {
          schedule = chosen;
          retention = decision;
          rf = chosen.Sched.Schedule.rf;
          data_words_avoided_per_iteration =
            decision.Retention.avoided_words_per_iteration;
        }))

let run ctx config = Result.map (fun r -> r.schedule) (run_full ctx config)

(* Warning-severity diagnostics for retention candidates the TF test turned
   down — surfaced by the pipeline's verbose mode, never fatal. *)
let retention_warnings (decision : Retention.decision) =
  List.map
    (fun (cand, reason) ->
      let d = Sharing.data cand in
      Diag.v ~severity:Diag.Warning ~scheduler:"cds" ~data:d.Data.name
        Diag.Retention_rejected "candidate %S not retained: %s" d.Data.name
        reason)
    decision.Retention.rejected

let scheduler : Sched.Scheduler_intf.t =
  (module struct
    let name = "cds"

    let describe =
      "Complete Data Scheduler (DATE'02): fragmentation-free allocation + \
       TF-driven retention of shared data"

    let run = run
  end)

let scheduler_xset : Sched.Scheduler_intf.t =
  (module struct
    let name = "cds-xset"

    let describe =
      "Complete Data Scheduler with the future-work cross-set reuse enabled"

    let run ctx config =
      Result.map (fun r -> r.schedule) (run_full ~cross_set:true ctx config)
  end)

let () =
  Sched.Scheduler_registry.register scheduler;
  Sched.Scheduler_registry.register scheduler_xset

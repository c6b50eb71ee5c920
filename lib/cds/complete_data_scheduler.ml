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

(* What retaining one candidate changes in the plain tables' rows, by
   cluster id: the clusters whose first-round and later loads of its
   object it skips, the producer whose store it skips, and, for an
   invariant object, every cluster that loads it from outside, since a
   retained table is loaded in round 0 alone. [twin] is the index of the
   object's other candidate (the same table held in the other FB set), or
   -1: an invariant object's later loads go once, whichever of its
   candidates is kept. *)
type share = {
  data : Data.t;
  load_skips : int list;
  store_skips : int list;
  consumers : int list;
  twin : int;
}

let share_of candidates i (c : Sharing.t) =
  let d = Sharing.data c in
  let twin = ref (-1) in
  if d.Data.invariant then
    Array.iteri
      (fun j c' ->
        if j <> i && (Sharing.data c').Data.id = d.Data.id then twin := j)
      candidates;
  {
    data = d;
    load_skips =
      List.filter
        (fun k -> Sharing.skips_load c ~cluster_id:k)
        c.Sharing.beneficiaries;
    (* only a shared result's producer may skip a store *)
    store_skips =
      (match c.Sharing.shared with
      | IE.Shared_result { producer_cluster; _ }
        when Sharing.skips_store c ~cluster_id:producer_cluster ->
        [ producer_cluster ]
      | _ -> []);
    consumers =
      (match c.Sharing.shared with
      | IE.Shared_data { consumer_clusters; _ }
      | IE.Shared_result { consumer_clusters; _ } ->
        consumer_clusters);
    twin = !twin;
  }

(* [rows] less one transfer of [d] at cluster [k], copied from [base]
   first unless the walk already owns it. *)
let lower rows ~base k (d : Data.t) =
  let module S = Sched.Step_builder in
  if !rows == base then
    rows :=
      {
        S.iter_words = Array.copy base.S.iter_words;
        iter_count = Array.copy base.S.iter_count;
        once_words = Array.copy base.S.once_words;
        once_count = Array.copy base.S.once_count;
      };
  let r = !rows in
  if d.Data.invariant then begin
    r.S.once_words.(k) <- r.S.once_words.(k) - d.Data.size;
    r.S.once_count.(k) <- r.S.once_count.(k) - 1
  end
  else begin
    r.S.iter_words.(k) <- r.S.iter_words.(k) - d.Data.size;
    r.S.iter_count.(k) <- r.S.iter_count.(k) - 1
  end

(* The rows of [selectors analysis (Retention.decision p w)], from the
   plain tables' rows: each kept candidate's loads and stores come off,
   and a kept invariant table's later loads. *)
let tally_of (base : Sched.Step_builder.tally) shares w =
  let module S = Sched.Step_builder in
  let first = ref base.S.first_rows and stored = ref base.S.stored_rows in
  let any_invariant = ref false in
  let take rows ~base ks d = List.iter (fun k -> lower rows ~base k d) ks in
  Array.iteri
    (fun i s ->
      if Retention.kept w i then begin
        take first ~base:base.S.first_rows s.load_skips s.data;
        take stored ~base:base.S.stored_rows s.store_skips s.data;
        if s.data.Data.invariant then any_invariant := true
      end)
    shares;
  let later =
    if not !any_invariant then !first
    else begin
      let later = ref base.S.later_rows in
      Array.iteri
        (fun i s ->
          if Retention.kept w i then
            if not s.data.Data.invariant then
              take later ~base:base.S.later_rows s.load_skips s.data
            else if s.twin < 0 || s.twin > i || not (Retention.kept w s.twin)
            then take later ~base:base.S.later_rows s.consumers s.data)
        shares;
      !later
    end
  in
  { S.first_rows = !first; later_rows = later; stored_rows = !stored }

(* The CDS allocator packs the whole set (paper §5: minimal memory, no
   fragmentation), so the RF bound is computed against the full FB size.
   Retention is walked again per candidate RF, since pinned copies scale
   with RF; everything else it reads is the context's alone and is
   prepared once per bound context. Ablated, the decision is empty at
   every RF. *)
let policy ~retention ~cross_set =
  {
    Sched.Step_builder.name = (if cross_set then "cds-xset" else "cds");
    cross_set;
    stage =
      (fun ctx ->
        let splits = Sched.Sched_ctx.splits_list ctx
        and iterations =
          (Sched.Sched_ctx.app ctx).Kernel_ir.Application.iterations
        and analysis = Sched.Sched_ctx.analysis ctx in
        let plain = Sched.Xfer_gen.plain_selectors_ctx analysis in
        let base = Sched.Step_builder.tally plain in
        let at_rf =
          if retention then begin
            let p = Retention.prepare ~cross_set ctx in
            let candidates = Retention.candidates p in
            let shares = Array.mapi (share_of candidates) candidates in
            fun config ~rf ->
              let w = Retention.walk p config ~rf in
              {
                Sched.Step_builder.tally = tally_of base shares w;
                chosen =
                  (fun () ->
                    let decision = Retention.decision p w in
                    (decision, selectors analysis decision));
              }
          end
          else
            let choice =
              {
                Sched.Step_builder.tally = base;
                chosen = (fun () -> (Retention.none, plain));
              }
            in
            fun _ ~rf:_ -> choice
        in
        {
          Sched.Step_builder.rf_bound =
            (fun (config : Morphosys.Config.t) ->
              match
                Sched.Reuse_factor.common_split
                  ~fb_set_size:config.fb_set_size ~footprints:splits
                  ~iterations
              with
              | 0 ->
                Error
                  (Diag.v Diag.No_feasible_rf
                     "some cluster's DS(C) exceeds the FB set of %dw"
                     config.fb_set_size)
              | rf_max -> Ok rf_max);
          at_rf;
        });
  }

let run_full ?(retention = true) ?(cross_set = false) ctx config =
  Result.map
    (fun (schedule, retention) -> { schedule; retention })
    (Sched.Step_builder.search
       (Sched.Step_builder.bind (policy ~retention ~cross_set) ctx)
       config)

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

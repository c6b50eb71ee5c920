module IE = Kernel_ir.Info_extractor

let footprints app clustering =
  IE.profiles app clustering |> List.map Ds_formula.footprint_basic

let schedule_reference config app clustering =
  match Context_scheduler.plan_app config app clustering with
  | Error d -> Error ("basic: " ^ Diag.to_string d)
  | Ok ctx_plan -> (
    let fps = footprints app clustering in
    match
      List.find_opt (fun fp -> fp > config.Morphosys.Config.fb_set_size) fps
    with
    | Some fp ->
      Error
        (Printf.sprintf
           "basic: cluster footprint %dw exceeds FB set of %dw (no \
            replacement)"
           fp config.Morphosys.Config.fb_set_size)
    | None ->
      Ok
        (Step_builder.build config app clustering ~rf:1 ~ctx_plan
           ~generators:(Xfer_gen.store_everything app clustering)
           ~scheduler:"basic"))

(* Index of the first footprint that does not fit the FB set, if any. *)
let overflow_cluster config fps =
  let rec go i = function
    | [] -> None
    | fp :: rest ->
      if fp > config.Morphosys.Config.fb_set_size then Some (i, fp)
      else go (i + 1) rest
  in
  go 0 fps

(* RF is fixed at 1; the only question is whether every cluster's
   no-replacement footprint fits one FB set. *)
let policy =
  {
    Step_builder.name = "basic";
    cross_set = false;
    rf_bound =
      (fun ctx config ->
        match overflow_cluster config (Sched_ctx.basic_footprints_list ctx) with
        | Some (cid, fp) ->
          Error
            (Diag.v ~cluster:cid Diag.Fb_overflow
               "cluster footprint %dw exceeds FB set of %dw (no replacement)"
               fp config.Morphosys.Config.fb_set_size)
        | None -> Ok 1);
    selectors =
      (fun ctx _ ~rf:_ ->
        ((), Xfer_gen.store_everything_selectors_ctx (Sched_ctx.analysis ctx)));
  }

let () =
  Scheduler_registry.register
    ~describe:"Basic Scheduler (DATE'99 baseline): no data reuse, RF fixed at 1"
    policy

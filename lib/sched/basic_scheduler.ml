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

let run (ctx : Sched_ctx.t) (config : Morphosys.Config.t) =
  match Engine.Faults.hit "sched" with
  | exception Engine.Faults.Injected site ->
    Error
      (Diag.v ~scheduler:"basic" Diag.Fault_injected
         "injected fault at scheduler entry (%s)" site)
  | () -> (
    let app = Sched_ctx.app ctx and clustering = Sched_ctx.clustering ctx in
    match Context_scheduler.plan_of_analysis config (Sched_ctx.analysis ctx) with
    | Error d -> Error (Diag.with_scheduler "basic" d)
    | Ok ctx_plan -> (
      match overflow_cluster config (Sched_ctx.basic_footprints_list ctx) with
      | Some (cid, fp) ->
        Error
          (Diag.v ~scheduler:"basic" ~cluster:cid Diag.Fb_overflow
             "cluster footprint %dw exceeds FB set of %dw (no replacement)"
             fp config.Morphosys.Config.fb_set_size)
      | None ->
        Ok
          (Step_builder.build config app clustering ~rf:1 ~ctx_plan
             ~generators:
               (Xfer_gen.store_everything_ctx (Sched_ctx.analysis ctx))
             ~scheduler:"basic")))

let scheduler : Scheduler_intf.t =
  (module struct
    let name = "basic"

    let describe =
      "Basic Scheduler (DATE'99 baseline): no data reuse, RF fixed at 1"

    let run = run
  end)

let () = Scheduler_registry.register scheduler

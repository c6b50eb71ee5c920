(* End-to-end tests of the three schedulers: feasibility rules, transfer
   accounting, simulation metrics and the central paper invariant
   time(CDS) <= time(DS) <= time(Basic). *)

module Schedule = Sched.Schedule
module Metrics = Msim.Metrics

let toy_setup () =
  let app = Fixtures.toy () in
  let ctx = Sched.Sched_ctx.make app (Fixtures.toy_clustering app) in
  (ctx, Fixtures.default_config)

let run_ok name = function
  | Ok s -> s
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

(* The Data Scheduler's transfers under the CDS allocator's full-set RF
   bound: the Data Scheduler at full allocation efficiency. *)
let ds_full_set ctx config =
  let rf_bound (config : Morphosys.Config.t) =
    match
      Sched.Reuse_factor.common_split ~fb_set_size:config.fb_set_size
        ~footprints:(Sched.Sched_ctx.splits_list ctx)
        ~iterations:(Sched.Sched_ctx.app ctx).Kernel_ir.Application.iterations
    with
    | 0 -> Error (Diag.v Diag.No_feasible_rf "no RF fits the FB set")
    | rf_max -> Ok rf_max
  in
  let selectors =
    Sched.Xfer_gen.plain_selectors_ctx (Sched.Sched_ctx.analysis ctx)
  in
  let choice =
    {
      Sched.Step_builder.tally = Sched.Step_builder.tally selectors;
      chosen = (fun () -> ((), selectors));
    }
  in
  Result.map fst
    (Sched.Step_builder.search
       (Sched.Step_builder.bind
          {
            Sched.Step_builder.name = "ds";
            cross_set = false;
            stage =
              (fun _ ->
                {
                  Sched.Step_builder.rf_bound;
                  at_rf = (fun _ ~rf:_ -> choice);
                });
          }
          ctx)
       config)

let test_basic_structure () =
  let ctx, config = toy_setup () in
  let s = run_ok "basic" (Fixtures.run "basic" ctx config) in
  Alcotest.(check int) "rf 1" 1 s.Schedule.rf;
  Alcotest.(check int) "rounds = iterations" 4 (Schedule.rounds s);
  Msim.Validate.check_exn s;
  (* loads: per iteration, cluster 0 loads a+b (150), cluster 1 loads
     a+r03+f1 (155) -> 305 * 4 iterations *)
  Alcotest.(check int) "loads" 1220 (Schedule.data_words_loaded s);
  (* stores: per iteration every produced result: r01+r03+f1 (95) from
     cluster 0, f3 (20) from cluster 1 -> 115 * 4 *)
  Alcotest.(check int) "stores" 460 (Schedule.data_words_stored s)

let test_ds_structure () =
  let ctx, config = toy_setup () in
  let s = run_ok "ds" (Fixtures.run "ds" ctx config) in
  Msim.Validate.check_exn s;
  Alcotest.(check bool) "rf >= 1" true (s.Schedule.rf >= 1);
  (* DS loads are the same as Basic's; stores skip intermediates: cluster 0
     stores r03+f1 (55), cluster 1 stores f3 (20) -> 75 * 4 *)
  Alcotest.(check int) "loads" 1220 (Schedule.data_words_loaded s);
  Alcotest.(check int) "stores" 300 (Schedule.data_words_stored s)

let test_cds_structure () =
  let ctx, config = toy_setup () in
  let r = run_ok "cds" (Fixtures.cds ctx config) in
  let s = r.Cds.Complete_data_scheduler.schedule in
  Msim.Validate.check_exn s;
  (* toy's sharing is all cross-set (clusters 0 and 1), so nothing can be
     retained without cross_set mode *)
  Alcotest.(check int) "nothing retained" 0
    (List.length r.Cds.Complete_data_scheduler.retention.Cds.Retention.retained);
  Alcotest.(check int) "dt 0" 0
    r.Cds.Complete_data_scheduler.retention.Cds.Retention
      .avoided_words_per_iteration;
  Alcotest.(check int) "same loads as ds" 1220 (Schedule.data_words_loaded s)

let test_cds_cross_set () =
  let ctx, config = toy_setup () in
  let r = run_ok "cds-xset" (Fixtures.cds ~cross_set:true ctx config) in
  let s = r.Cds.Complete_data_scheduler.schedule in
  Alcotest.(check bool) "flag recorded" true s.Schedule.cross_set;
  Msim.Validate.check_exn s;
  Alcotest.(check bool) "something retained" true
    (r.Cds.Complete_data_scheduler.retention.Cds.Retention
       .avoided_words_per_iteration > 0);
  (* fewer external words than the plain CDS *)
  Alcotest.(check bool) "fewer loads" true
    (Schedule.data_words_loaded s < 1220)

let test_cds_retention_same_set () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let config = Fixtures.default_config in
  let r =
    run_ok "cds" (Fixtures.cds (Sched.Sched_ctx.make app clustering) config)
  in
  Msim.Validate.check_exn r.Cds.Complete_data_scheduler.schedule;
  let retained =
    List.map
      (fun c -> (Cds.Sharing.data c).Kernel_ir.Data.name)
      r.Cds.Complete_data_scheduler.retention.Cds.Retention.retained
  in
  Alcotest.(check (list string)) "retains sh and rshare" [ "rshare"; "sh" ]
    (List.sort compare retained);
  (* sh: one load avoided (60); rshare: one store + one load avoided (40) *)
  Alcotest.(check int) "dt words" 100
    r.Cds.Complete_data_scheduler.retention.Cds.Retention
      .avoided_words_per_iteration

let test_basic_infeasible_when_tight () =
  let ctx, _ = toy_setup () in
  (* basic needs 245 words; ds only 220 *)
  let config = Morphosys.Config.m1 ~fb_set_size:230 in
  Alcotest.(check bool) "basic rejected" true
    (Result.is_error (Sched.Scheduler_registry.run "basic" ctx config));
  Alcotest.(check bool) "ds still fine" true
    (Result.is_ok (ds_full_set ctx config))

let test_ds_infeasible_when_tighter () =
  let ctx, _ = toy_setup () in
  let config = Morphosys.Config.m1 ~fb_set_size:210 in
  Alcotest.(check bool) "ds rejected" true
    (Result.is_error (ds_full_set ctx config))

let test_overlap_metrics () =
  let ctx, config = toy_setup () in
  let s = run_ok "ds" (Fixtures.run "ds" ctx config) in
  let m = Msim.Executor.run config s in
  Alcotest.(check bool) "total >= compute" true
    (m.Metrics.total_cycles >= m.Metrics.compute_cycles);
  Alcotest.(check int) "stall accounting" m.Metrics.stall_cycles
    (m.Metrics.total_cycles - m.Metrics.compute_cycles);
  Alcotest.(check int) "loads metric matches schedule"
    (Schedule.data_words_loaded s) m.Metrics.data_words_loaded;
  Alcotest.(check bool) "some overlap happened" true
    (m.Metrics.overlapped_dma_cycles > 0)

(* The headline invariant. Random well-formed apps on a machine big enough
   for everything: CDS never slower than DS, DS never slower than Basic. *)
let prop_scheduler_ordering =
  QCheck.Test.make ~name:"cycles: cds <= ds <= basic" ~count:100
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let config = Fixtures.big_config in
      let ctx = Sched.Sched_ctx.make app clustering in
      let run name = Sched.Scheduler_registry.run name ctx config in
      match (run "basic", run "ds", run "cds") with
      | Ok b, Ok d, Ok c ->
        let cycles s = (Msim.Executor.run config s).Metrics.total_cycles in
        let cb = cycles b and cd = cycles d and cc = cycles c in
        cc <= cd && cd <= cb
      | _ -> false (* everything fits the big machine *))

(* All three schedulers always produce semantically valid schedules. *)
let prop_schedules_validate =
  QCheck.Test.make ~name:"schedules pass the validator" ~count:100
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let config = Fixtures.big_config in
      let valid = function
        | Ok s -> Msim.Validate.check s = []
        | Error _ -> false
      in
      let ctx = Sched.Sched_ctx.make app clustering in
      List.for_all
        (fun name -> valid (Sched.Scheduler_registry.run name ctx config))
        [ "basic"; "ds"; "cds" ])

(* CDS with retention disabled must coincide with DS exactly (same RF would
   require same allocator; compare at full efficiency). *)
let prop_ablated_cds_equals_ds =
  QCheck.Test.make ~name:"cds without retention = ds (full efficiency)"
    ~count:100 Workloads.Random_app.arb_app_with_clustering
    (fun (app, clustering) ->
      let config = Fixtures.big_config in
      let ctx = Sched.Sched_ctx.make app clustering in
      match
        ( ds_full_set ctx config,
          Cds.Complete_data_scheduler.run_full ~retention:false ctx config )
      with
      | Ok d, Ok c ->
        let s = c.Cds.Complete_data_scheduler.schedule in
        Schedule.data_words_loaded d = Schedule.data_words_loaded s
        && Schedule.data_words_stored d = Schedule.data_words_stored s
        && d.Schedule.rf = s.Schedule.rf
      | _ -> false)

let tests =
  ( "schedulers",
    [
      Alcotest.test_case "basic structure" `Quick test_basic_structure;
      Alcotest.test_case "ds structure" `Quick test_ds_structure;
      Alcotest.test_case "cds structure" `Quick test_cds_structure;
      Alcotest.test_case "cds cross-set" `Quick test_cds_cross_set;
      Alcotest.test_case "cds same-set retention" `Quick
        test_cds_retention_same_set;
      Alcotest.test_case "basic infeasible when tight" `Quick
        test_basic_infeasible_when_tight;
      Alcotest.test_case "ds infeasible when tighter" `Quick
        test_ds_infeasible_when_tighter;
      Alcotest.test_case "overlap metrics" `Quick test_overlap_metrics;
      QCheck_alcotest.to_alcotest prop_scheduler_ordering;
      QCheck_alcotest.to_alcotest prop_schedules_validate;
      QCheck_alcotest.to_alcotest prop_ablated_cds_equals_ds;
    ] )

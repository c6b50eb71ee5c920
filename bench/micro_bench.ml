(* Bechamel microbenchmarks of the scheduler components themselves — one
   Test.make per reproduced table/figure pipeline plus the hot inner
   pieces (DS(C) formula, retention pass, allocator, simulator). *)

open Bechamel
open Toolkit

let config = Morphosys.Config.m1 ~fb_set_size:2048

let e1 = Workloads.Synthetic.e1 ()
let e1_clustering = Workloads.Synthetic.e1_clustering e1
let mpeg = Workloads.Mpeg.app ()
let mpeg_clustering = Workloads.Mpeg.clustering mpeg
let sld = Workloads.Atr.sld ()
let sld_clustering = Workloads.Atr.sld_clustering sld
let sld_config = Morphosys.Config.m1 ~fb_set_size:8192

let cds_schedule () =
  let ctx = Sched.Sched_ctx.make mpeg mpeg_clustering in
  match Sched.Scheduler_registry.run "cds" ctx config with
  | Ok s -> s
  | Error d -> failwith (Diag.to_string d)

let prebuilt = cds_schedule ()

let test_table1_row name app clustering cfg =
  Test.make ~name (Staged.stage (fun () ->
      ignore (Cds.Pipeline.run ~validate:false cfg app clustering)))

let tests =
  [
    (* one end-to-end pipeline run per reproduced artifact *)
    test_table1_row "table1/E1" e1 e1_clustering
      (Morphosys.Config.m1 ~fb_set_size:1024);
    test_table1_row "table1+fig6/MPEG" mpeg mpeg_clustering config;
    test_table1_row "table1+fig6/ATR-SLD" sld sld_clustering sld_config;
    Test.make ~name:"fig5/allocator"
      (Staged.stage (fun () ->
           let app = Workloads.Synthetic.figure5 () in
           let clustering = Workloads.Synthetic.figure5_clustering app in
           let cfg = Morphosys.Config.m1 ~fb_set_size:512 in
           let ctx = Sched.Sched_ctx.make app clustering in
           match Cds.Complete_data_scheduler.run_full ctx cfg with
           | Ok r ->
             ignore
               (Cds.Allocation_algorithm.run cfg app clustering
                  ~rf:r.Cds.Complete_data_scheduler.rf
                  ~retention:r.Cds.Complete_data_scheduler.retention ~round:0)
           | Error d -> failwith (Diag.to_string d)));
    (* hot components *)
    Test.make ~name:"component/ds_formula"
      (Staged.stage (fun () ->
           ignore (Sched.Data_scheduler.footprints mpeg mpeg_clustering)));
    Test.make ~name:"component/retention"
      (Staged.stage (fun () ->
           ignore (Cds.Retention.choose sld_config sld sld_clustering ~rf:1)));
    Test.make ~name:"component/simulator"
      (Staged.stage (fun () -> ignore (Msim.Executor.run config prebuilt)));
    Test.make ~name:"component/validator"
      (Staged.stage (fun () -> ignore (Msim.Validate.check prebuilt)));
    Test.make ~name:"component/kernel_scheduler"
      (Staged.stage (fun () ->
           ignore
             (Cds.Pipeline.auto_clustering
                (Morphosys.Config.m1 ~fb_set_size:1024)
                (Fixture_app.small ()))));
  ]

let benchmark () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw =
    List.map (fun test -> Benchmark.all cfg instances test) tests
  in
  let results =
    List.map
      (fun r -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                               ~predictors:[| Measure.run |]) Instance.monotonic_clock r)
      raw
  in
  (tests, results)

let run () =
  Format.printf "@\n== Microbenchmarks (bechamel, monotonic clock) ==@\n@\n";
  let tests, results = benchmark () in
  List.iter2
    (fun test result ->
      let name = Test.Elt.name (List.hd (Test.elements test)) in
      Hashtbl.iter
        (fun key ols ->
          if key = name then
            match Analyze.OLS.estimates ols with
            | Some [ est ] ->
              Format.printf "%-28s %12.0f ns/run@\n" name est
            | _ -> Format.printf "%-28s (no estimate)@\n" name)
        result)
    tests results

(* Unit tests for the scheduling substrates: reuse factor, context
   scheduler, kernel scheduler, schedule helpers. *)

module RF = Sched.Reuse_factor
module CS = Sched.Context_scheduler
module KS = Sched.Kernel_scheduler
module Schedule = Sched.Schedule

(* One cluster's RF bound, through [common] on a single footprint. *)
let test_rf_per_cluster () =
  Alcotest.(check int) "fits 3x" 3
    (RF.common ~fb_set_size:1024 ~footprints:[ 300 ] ~iterations:100);
  Alcotest.(check int) "exact fit" 1
    (RF.common ~fb_set_size:1024 ~footprints:[ 1024 ] ~iterations:100);
  Alcotest.(check int) "infeasible" 0
    (RF.common ~fb_set_size:1024 ~footprints:[ 1025 ] ~iterations:100)

let test_rf_common () =
  Alcotest.(check int) "min of clusters" 2
    (RF.common ~fb_set_size:1024 ~footprints:[ 300; 500 ] ~iterations:100);
  Alcotest.(check int) "clamped to iterations" 4
    (RF.common ~fb_set_size:1024 ~footprints:[ 100 ] ~iterations:4);
  Alcotest.(check int) "zero when infeasible" 0
    (RF.common ~fb_set_size:1024 ~footprints:[ 100; 2000 ] ~iterations:10);
  match RF.common ~fb_set_size:10 ~footprints:[] ~iterations:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty footprints must fail"

let test_context_plan_pins_everything_when_roomy () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let config = Morphosys.Config.make ~fb_set_size:1024 ~cm_capacity:4096 () in
  match CS.plan_app config app clustering with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok plan ->
    Alcotest.(check (list int)) "all pinned" [ 0; 1 ] plan.CS.pinned;
    Alcotest.(check int) "round 0 loads" 200
      (CS.load_words_for_round plan ~app
         ~cluster:(Kernel_ir.Cluster.find clustering 0) ~round:0);
    Alcotest.(check int) "later rounds free" 0
      (CS.load_words_for_round plan ~app
         ~cluster:(Kernel_ir.Cluster.find clustering 0) ~round:3)

let test_context_plan_reloads_under_pressure () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  (* each cluster needs 200 context words; a 399-word CM cannot hold both,
     so neither can be pinned and both reload every round *)
  let config = Morphosys.Config.make ~fb_set_size:1024 ~cm_capacity:399 () in
  match CS.plan_app config app clustering with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok plan ->
    Alcotest.(check (list int)) "nothing pinned" [ 0; 1 ] plan.CS.reloaded;
    Alcotest.(check int) "reload every round" 200
      (CS.load_words_for_round plan ~app
         ~cluster:(Kernel_ir.Cluster.find clustering 1) ~round:5)

let test_context_plan_infeasible () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let config = Morphosys.Config.make ~fb_set_size:1024 ~cm_capacity:150 () in
  Alcotest.(check bool) "cluster bigger than CM" true
    (Result.is_error (CS.plan_app config app clustering))

let test_kernel_scheduler_enumerate () =
  let app = Fixtures.toy () in
  Alcotest.(check int) "2^(n-1) partitions" 8 (List.length (KS.enumerate app))

let test_kernel_scheduler_best () =
  let app = Fixtures.toy () in
  (* contrived objective: prefer as many clusters as possible *)
  let eval clustering = Some (100 - Kernel_ir.Cluster.n_clusters clustering) in
  (match KS.best app ~eval with
  | Some (clustering, cycles) ->
    Alcotest.(check int) "singletons win" 4
      (Kernel_ir.Cluster.n_clusters clustering);
    Alcotest.(check int) "score" 96 cycles
  | None -> Alcotest.fail "expected a feasible clustering");
  (* all infeasible *)
  Alcotest.(check bool) "none feasible" true (KS.best app ~eval:(fun _ -> None) = None)

let test_kernel_scheduler_greedy_feasible () =
  let app = Fixtures.toy () in
  (* objective that rewards merging: fewer clusters = fewer cycles *)
  let eval clustering = Some (Kernel_ir.Cluster.n_clusters clustering * 10) in
  match KS.greedy app ~eval with
  | Some (clustering, cycles) ->
    Alcotest.(check int) "greedy merges fully" 1
      (Kernel_ir.Cluster.n_clusters clustering);
    Alcotest.(check int) "cycles" 10 cycles
  | None -> Alcotest.fail "greedy found nothing"

let test_schedule_labels () =
  Alcotest.(check string) "label" "d1@3" (Schedule.instance_label "d1" ~iter:3);
  Alcotest.(check (option (pair string int))) "parse" (Some ("d1", 3))
    (Schedule.parse_label "d1@3");
  Alcotest.(check (option (pair string int))) "parse ctx label" None
    (Schedule.parse_label "Cl0");
  Alcotest.(check (option (pair string int))) "name containing @" (Some ("a@b", 2))
    (Schedule.parse_label "a@b@2");
  (* the hand-written renderer prints exactly what [Printf] does, at every
     digit-count boundary and at the extremes; [parse_label] inverts it for
     every iteration a schedule can carry *)
  List.iter
    (fun name ->
      List.iter
        (fun iter ->
          let label = Schedule.instance_label name ~iter in
          Alcotest.(check string)
            (Printf.sprintf "render %S %d" name iter)
            (Printf.sprintf "%s@%d" name iter)
            label;
          if iter >= 0 then
            Alcotest.(check (option (pair string int)))
              (Printf.sprintf "parse %S" label)
              (Some (name, iter))
              (Schedule.parse_label label))
        [ 0; 9; 10; 99; 100; 65535; 65536; max_int; -1; -10; min_int ])
    [ "d1"; ""; "a@b" ]

let test_schedule_rounds () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let config = Fixtures.default_config in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Error e -> Alcotest.fail e
  | Ok s ->
    let total =
      List.init (Schedule.rounds s) (Schedule.iterations_in_round s)
      |> Msutil.Listx.sum
    in
    Alcotest.(check int) "rounds cover all iterations" 4 total

let test_beam_search () =
  let app = Fixtures.toy () in
  (* objective that rewards merging *)
  let eval clustering = Some (Kernel_ir.Cluster.n_clusters clustering * 10) in
  (match KS.beam ~width:2 app ~eval with
  | Some (clustering, cycles) ->
    Alcotest.(check int) "beam finds the single cluster" 1
      (Kernel_ir.Cluster.n_clusters clustering);
    Alcotest.(check int) "score" 10 cycles
  | None -> Alcotest.fail "beam found nothing");
  Alcotest.(check bool) "all infeasible" true
    (KS.beam app ~eval:(fun _ -> None) = None);
  match KS.beam ~width:0 app ~eval with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width validation"

let prop_beam_never_beats_exhaustive =
  QCheck.Test.make ~name:"exhaustive best <= beam result" ~count:50
    Workloads.Random_app.arb_app_with_clustering (fun (app, _) ->
      let eval clustering =
        let sizes = Kernel_ir.Cluster.partition_sizes clustering in
        Some
          (Msutil.Listx.sum_by (fun s -> (s - 2) * (s - 2)) sizes
          + List.length sizes)
      in
      match (KS.best app ~eval, KS.beam ~width:3 app ~eval) with
      | Some (_, b), Some (_, bm) -> b <= bm
      | Some _, None -> false (* eval always succeeds *)
      | None, _ -> false)

let prop_greedy_never_beats_exhaustive =
  QCheck.Test.make ~name:"exhaustive best <= greedy result" ~count:50
    Workloads.Random_app.arb_app_with_clustering (fun (app, _) ->
      (* a deterministic pseudo-objective derived from structure *)
      let eval clustering =
        let sizes = Kernel_ir.Cluster.partition_sizes clustering in
        Some (Msutil.Listx.sum_by (fun s -> (s - 2) * (s - 2)) sizes + List.length sizes)
      in
      match (KS.best app ~eval, KS.greedy app ~eval) with
      | Some (_, b), Some (_, g) -> b <= g
      | Some _, None -> true
      | None, _ -> false (* eval always succeeds, best must find something *))

let tests =
  ( "sched_units",
    [
      Alcotest.test_case "rf per cluster" `Quick test_rf_per_cluster;
      Alcotest.test_case "rf common" `Quick test_rf_common;
      Alcotest.test_case "context plan: roomy CM" `Quick
        test_context_plan_pins_everything_when_roomy;
      Alcotest.test_case "context plan: pressure" `Quick
        test_context_plan_reloads_under_pressure;
      Alcotest.test_case "context plan: infeasible" `Quick
        test_context_plan_infeasible;
      Alcotest.test_case "kernel scheduler enumerate" `Quick
        test_kernel_scheduler_enumerate;
      Alcotest.test_case "kernel scheduler best" `Quick test_kernel_scheduler_best;
      Alcotest.test_case "kernel scheduler greedy" `Quick
        test_kernel_scheduler_greedy_feasible;
      Alcotest.test_case "schedule labels" `Quick test_schedule_labels;
      Alcotest.test_case "schedule rounds" `Quick test_schedule_rounds;
      Alcotest.test_case "beam search" `Quick test_beam_search;
      QCheck_alcotest.to_alcotest prop_beam_never_beats_exhaustive;
      QCheck_alcotest.to_alcotest prop_greedy_never_beats_exhaustive;
    ] )

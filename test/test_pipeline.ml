(* The end-to-end pipeline: comparisons, helpers and the kernel-scheduler
   driven auto-clustering. *)

module P = Cds.Pipeline

let setup () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  (app, clustering, Fixtures.default_config)

let test_run_all_ok () =
  let app, clustering, config = setup () in
  let c = P.run config app clustering in
  Alcotest.(check bool) "basic ok" true (Result.is_ok c.P.basic);
  Alcotest.(check bool) "ds ok" true (Result.is_ok c.P.ds);
  Alcotest.(check bool) "cds ok" true (Result.is_ok c.P.cds);
  (match (P.improvement c `Ds, P.improvement c `Cds) with
  | Some ds, Some cds -> Alcotest.(check bool) "cds >= ds" true (cds >= ds)
  | _ -> Alcotest.fail "improvements missing");
  Alcotest.(check (option int)) "dt" (Some 100) (P.dt_words c);
  match P.ds_rf c with
  | Some rf -> Alcotest.(check bool) "rf >= 1" true (rf >= 1)
  | None -> Alcotest.fail "rf missing"

let test_improvement_none_when_infeasible () =
  let app, clustering, _ = setup () in
  (* too small for basic (footprint ~130 + results) but fine for ds/cds *)
  let config = Morphosys.Config.m1 ~fb_set_size:150 in
  let c = P.run config app clustering in
  Alcotest.(check bool) "basic infeasible" true (Result.is_error c.P.basic);
  Alcotest.(check (option (float 1.))) "no ds improvement" None
    (P.improvement c `Ds);
  Alcotest.(check bool) "rf still reported from cds" true (P.ds_rf c <> None)

let test_auto_clustering () =
  let app, _, config = setup () in
  match P.auto_clustering config app with
  | Some (clustering, cycles) -> (
    Alcotest.(check bool) "valid clustering" true
      (Kernel_ir.Cluster.check app clustering = []);
    Alcotest.(check bool) "positive cycles" true (cycles > 0);
    (* auto must be at least as good as the fixed partition *)
    let fixed = P.run config app (Fixtures.same_set_clustering app) in
    match fixed.P.cds with
    | Ok (s, _) ->
      Alcotest.(check bool) "auto <= fixed" true
        (cycles <= s.P.metrics.Msim.Metrics.total_cycles)
    | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "no feasible clustering found"

let test_auto_clustering_infeasible () =
  let app, _, _ = setup () in
  let config = Morphosys.Config.make ~fb_set_size:8 ~cm_capacity:8 () in
  Alcotest.(check bool) "nothing fits an 8-word machine" true
    (P.auto_clustering config app = None)

let test_allocation_report () =
  let app, clustering, config = setup () in
  match P.allocation_report config app clustering with
  | Ok r ->
    Alcotest.(check (list string)) "no failures" []
      r.Cds.Allocation_algorithm.failures
  | Error e -> Alcotest.fail e

let tests =
  ( "pipeline",
    [
      Alcotest.test_case "run all" `Quick test_run_all_ok;
      Alcotest.test_case "infeasible handling" `Quick
        test_improvement_none_when_infeasible;
      Alcotest.test_case "auto clustering" `Quick test_auto_clustering;
      Alcotest.test_case "auto clustering infeasible" `Quick
        test_auto_clustering_infeasible;
      Alcotest.test_case "allocation report" `Quick test_allocation_report;
    ] )

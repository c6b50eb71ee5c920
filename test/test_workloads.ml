(* The paper's workloads and the Table 1 experiment set: structural
   properties the reproduction depends on. *)

module T1 = Workloads.Table1
module Schedule = Sched.Schedule

let test_apps_validate () =
  (* building any workload exercises the full IR validation *)
  let apps =
    [
      Workloads.Synthetic.e1 ();
      Workloads.Synthetic.e2 ();
      Workloads.Synthetic.e3 ();
      Workloads.Synthetic.figure5 ();
      Workloads.Synthetic.figure3 ();
      Workloads.Mpeg.app ();
      Workloads.Atr.sld ();
      Workloads.Atr.fi ();
    ]
  in
  Alcotest.(check int) "eight applications" 8 (List.length apps);
  List.iter
    (fun (app : Kernel_ir.Application.t) ->
      Alcotest.(check bool)
        (app.Kernel_ir.Application.name ^ " has kernels")
        true
        (Kernel_ir.Application.n_kernels app > 0))
    apps

let test_table1_ids () =
  Alcotest.(check (list string)) "paper row order"
    [
      "E1"; "E1*"; "E2"; "E3"; "MPEG"; "MPEG*"; "ATR-SLD"; "ATR-SLD*";
      "ATR-SLD**"; "ATR-FI"; "ATR-FI*"; "ATR-FI**";
    ]
    (T1.ids ());
  Alcotest.(check string) "by_id" "MPEG" (T1.by_id "MPEG").T1.id;
  match T1.by_id "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_clusterings_valid () =
  List.iter
    (fun (e : T1.experiment) ->
      match Kernel_ir.Cluster.check e.T1.app e.T1.clustering with
      | [] -> ()
      | d :: _ -> Alcotest.fail (e.T1.id ^ ": " ^ Diag.to_string d))
    (T1.all ())

(* The reproduction's headline checks: the measured RF equals the paper's
   RF on every row, and the scheduler ordering matches the paper's. *)
let test_rf_matches_paper () =
  List.iter
    (fun (e : T1.experiment) ->
      let c = Cds.Pipeline.run e.T1.config e.T1.app e.T1.clustering in
      match Cds.Pipeline.ds_rf c with
      | Some rf ->
        Alcotest.(check int) (e.T1.id ^ " RF") e.T1.paper.T1.rf rf
      | None -> Alcotest.fail (e.T1.id ^ ": CDS infeasible"))
    (T1.all ())

let test_cds_dominates_ds () =
  List.iter
    (fun (e : T1.experiment) ->
      let c = Cds.Pipeline.run e.T1.config e.T1.app e.T1.clustering in
      match
        (Cds.Pipeline.improvement c `Ds, Cds.Pipeline.improvement c `Cds)
      with
      | Some ds, Some cds ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: CDS (%.1f) >= DS (%.1f)" e.T1.id cds ds)
          true (cds >= ds -. 1e-9);
        Alcotest.(check bool) (e.T1.id ^ ": DS >= 0") true (ds >= -1e-9)
      | _ -> Alcotest.fail (e.T1.id ^ ": scheduler infeasible"))
    (T1.all ())

let test_e1_and_sld_star_ds_zero () =
  let zero id =
    let e = T1.by_id id in
    let c = Cds.Pipeline.run e.T1.config e.T1.app e.T1.clustering in
    match Cds.Pipeline.improvement c `Ds with
    | Some ds ->
      Alcotest.(check (float 0.5)) (id ^ " DS improvement is 0") 0. ds
    | None -> Alcotest.fail (id ^ " infeasible")
  in
  (* E1 has no intermediates and RF=1 at FB=1K; ATR-SLD* has no
     intra-cluster intermediates: in both, DS == Basic, as in the paper *)
  zero "E1";
  zero "ATR-SLD*"

let test_mpeg_1k_feasibility () =
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:1024 in
  let ctx = Sched.Sched_ctx.make app clustering in
  let run name = Sched.Scheduler_registry.run name ctx config in
  Alcotest.(check bool) "basic cannot run MPEG at 1K" true
    (Result.is_error (run "basic"));
  Alcotest.(check bool) "ds runs MPEG at 1K" true (Result.is_ok (run "ds"));
  Alcotest.(check bool) "cds runs MPEG at 1K" true (Result.is_ok (run "cds"))

let test_all_schedules_validate () =
  List.iter
    (fun (e : T1.experiment) ->
      (* Pipeline.run validates internally and raises on violations *)
      let (_ : Cds.Pipeline.comparison) =
        Cds.Pipeline.run e.T1.config e.T1.app e.T1.clustering
      in
      ())
    (T1.all ())

let test_dt_positive_where_paper_reports_it () =
  List.iter
    (fun (e : T1.experiment) ->
      let c = Cds.Pipeline.run e.T1.config e.T1.app e.T1.clustering in
      match Cds.Pipeline.dt_words c with
      | Some dt ->
        Alcotest.(check bool) (e.T1.id ^ " DT > 0") true (dt > 0)
      | None -> Alcotest.fail (e.T1.id ^ " infeasible"))
    (T1.all ())

let test_random_app_generator_sane () =
  (* drive the generator directly: it must always produce valid apps *)
  let gen = Workloads.Random_app.gen_app_with_clustering in
  let rand = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let app, clustering = QCheck.Gen.generate1 ~rand gen in
    match Kernel_ir.Cluster.check app clustering with
    | [] -> ()
    | d :: _ -> Alcotest.fail (Diag.to_string d)
  done

let tests =
  ( "workloads",
    [
      Alcotest.test_case "apps validate" `Quick test_apps_validate;
      Alcotest.test_case "table1 ids" `Quick test_table1_ids;
      Alcotest.test_case "clusterings valid" `Quick test_clusterings_valid;
      Alcotest.test_case "RF matches paper" `Quick test_rf_matches_paper;
      Alcotest.test_case "CDS dominates DS" `Quick test_cds_dominates_ds;
      Alcotest.test_case "DS=0 rows" `Quick test_e1_and_sld_star_ds_zero;
      Alcotest.test_case "MPEG 1K feasibility" `Quick test_mpeg_1k_feasibility;
      Alcotest.test_case "all schedules validate" `Quick
        test_all_schedules_validate;
      Alcotest.test_case "DT positive" `Quick test_dt_positive_where_paper_reports_it;
      Alcotest.test_case "random generator sane" `Quick
        test_random_app_generator_sane;
    ] )

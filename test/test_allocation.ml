(* The Figure 4 allocation algorithm: successful regular placement on the
   paper's workloads, the no-split claim, and consistency with the DS(C)
   footprint arithmetic. *)

module AA = Cds.Allocation_algorithm
module IE = Kernel_ir.Info_extractor

let analysis app clustering = Kernel_ir.Analysis.make app clustering

let run_alloc config app clustering =
  let ctx = Sched.Sched_ctx.make app clustering in
  match Fixtures.cds ctx config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    ( r,
      AA.run config ~analysis:(Sched.Sched_ctx.analysis ctx)
        ~rf:r.Cds.Complete_data_scheduler.rf
        ~retention:r.Cds.Complete_data_scheduler.retention ~round:0 )

let test_same_set_allocation () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let _, result = run_alloc Fixtures.default_config app clustering in
  Alcotest.(check (list string)) "no failures" [] result.AA.failures;
  Alcotest.(check int) "no splits" 0 result.AA.splits;
  Alcotest.(check int) "one peak per cluster" 3 (List.length result.AA.peak_words)

let test_figure5_snapshots () =
  let app = Workloads.Synthetic.figure5 () in
  let clustering = Workloads.Synthetic.figure5_clustering app in
  (* a 512-word set bounds the figure's RF at 2 *)
  let config = Morphosys.Config.m1 ~fb_set_size:512 in
  let r, result = run_alloc config app clustering in
  Alcotest.(check int) "figure's RF" 2 r.Cds.Complete_data_scheduler.rf;
  Alcotest.(check (list string)) "no failures" [] result.AA.failures;
  Alcotest.(check int) "no splits" 0 result.AA.splits;
  (* the focus cluster's snapshots must show the figure's objects *)
  let focus = Workloads.Synthetic.figure5_focus_cluster in
  let cells_of_focus =
    List.concat_map
      (fun (s : AA.snapshot) ->
        if
          Astring_contains.contains s.AA.caption
            (Printf.sprintf "Cl%d" focus)
        then
          Array.to_list s.AA.cells
          |> List.filter_map (fun c -> c)
        else [])
      result.AA.snapshots
  in
  let mentions name =
    List.exists (fun c -> Astring_contains.contains c name) cells_of_focus
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " appears in FB") true (mentions name))
    [ "D13"; "D37"; "d1"; "d2"; "r13"; "r23"; "R3_5"; "Rout" ]

let test_peaks_bounded_by_formula () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let config = Fixtures.default_config in
  let r, result = run_alloc config app clustering in
  let rf = r.Cds.Complete_data_scheduler.rf in
  let retained =
    r.Cds.Complete_data_scheduler.retention.Cds.Retention.retained
  in
  let profiles = IE.profiles app clustering in
  List.iter
    (fun (cid, peak) ->
      let p = List.nth profiles cid in
      let pinned =
        Cds.Retention.pinned_for ~retained ~cluster:p.IE.cluster
      in
      let bound = rf * Sched.Ds_formula.closed_form ~pinned p in
      Alcotest.(check bool)
        (Printf.sprintf "cluster %d peak %d <= bound %d" cid peak bound)
        true (peak <= bound))
    result.AA.peak_words

let test_capture_filter () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let config = Fixtures.default_config in
  let ctx = Sched.Sched_ctx.make app clustering in
  match Fixtures.cds ctx config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let result =
      AA.run
        ~capture:(fun ~cluster_id -> cluster_id = 1)
        config ~analysis:(Sched.Sched_ctx.analysis ctx)
        ~rf:r.Cds.Complete_data_scheduler.rf
        ~retention:r.Cds.Complete_data_scheduler.retention ~round:0
    in
    Alcotest.(check bool) "only cluster 1 captured" true
      (List.for_all
         (fun (s : AA.snapshot) ->
           Astring_contains.contains s.AA.caption "Cl1")
         result.AA.snapshots);
    Alcotest.(check bool) "still some snapshots" true
      (result.AA.snapshots <> [])

let test_validation_args () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let config = Fixtures.default_config in
  (match
     AA.run config ~analysis:(analysis app clustering) ~rf:0
       ~retention:Cds.Retention.none ~round:0
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rf validation");
  match
    AA.run config ~analysis:(analysis app clustering) ~rf:1
      ~retention:Cds.Retention.none ~round:(-1)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "round validation"

(* Property: the allocator succeeds without failures on every random app
   scheduled by the CDS on a big machine (space math and placement agree),
   and the end-of-round layouts are internally consistent. *)
let prop_allocator_succeeds =
  QCheck.Test.make ~name:"allocator places every object" ~count:75
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let config = Fixtures.big_config in
      let ctx = Sched.Sched_ctx.make app clustering in
      match Fixtures.cds ctx config with
      | Error _ -> false
      | Ok r ->
        let result =
          AA.run config ~analysis:(Sched.Sched_ctx.analysis ctx)
            ~rf:r.Cds.Complete_data_scheduler.rf
            ~retention:r.Cds.Complete_data_scheduler.retention ~round:0
        in
        result.AA.failures = [])

let tests =
  ( "allocation",
    [
      Alcotest.test_case "same-set allocation" `Quick test_same_set_allocation;
      Alcotest.test_case "figure 5 snapshots" `Quick test_figure5_snapshots;
      Alcotest.test_case "peaks bounded by DS(C)" `Quick
        test_peaks_bounded_by_formula;
      Alcotest.test_case "capture filter" `Quick test_capture_filter;
      Alcotest.test_case "argument validation" `Quick test_validation_args;
      QCheck_alcotest.to_alcotest prop_allocator_succeeds;
    ] )

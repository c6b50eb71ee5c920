(* The reporting layer: Table 1 rows, CSV export, and the machine-model
   refinements it surfaces (DMA setup cost, FB-size monotonicity). *)

let rows = lazy (Report.Table_report.run_rows ())

let test_csv_shape () =
  let csv = Report.Table_report.to_csv (Lazy.force rows) in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "header + 12 rows" 13 (List.length lines);
  let header = List.hd lines in
  Alcotest.(check bool) "header columns" true
    (Astring_contains.contains header "cds_pct");
  List.iteri
    (fun i line ->
      if i > 0 then
        Alcotest.(check int)
          ("row " ^ string_of_int i ^ " arity")
          12
          (List.length (String.split_on_char ',' line)))
    lines

let test_rows_complete () =
  Alcotest.(check int) "12 experiments" 12 (List.length (Lazy.force rows));
  List.iter
    (fun (r : Report.Table_report.row) ->
      Alcotest.(check bool)
        (r.Report.Table_report.experiment.Workloads.Table1.id ^ " cds ok")
        true
        (Result.is_ok r.Report.Table_report.comparison.Cds.Pipeline.cds))
    (Lazy.force rows)

let test_dma_setup_cost () =
  let base = Morphosys.Config.make ~fb_set_size:64 () in
  let priced = Morphosys.Config.make ~fb_set_size:64 ~dma_setup_cycles:10 () in
  let tr = Morphosys.Dma.data_load ~set:Morphosys.Frame_buffer.Set_a
      ~label:"d@0" ~words:8 in
  Alcotest.(check int) "free setup" 8 (Morphosys.Dma.cost base tr);
  Alcotest.(check int) "priced setup" 18 (Morphosys.Dma.cost priced tr);
  match Morphosys.Config.make ~fb_set_size:64 ~dma_setup_cycles:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative setup must be rejected"

(* Growing the frame buffer can never slow the CDS down: a bigger set only
   enlarges the candidate RF range and the retention budget, and the
   scheduler keeps the fastest candidate. *)
let test_cds_monotone_in_fb () =
  List.iter
    (fun name ->
      let entry = Option.get (Workloads.Registry.find name) in
      let app = entry.Workloads.Registry.app () in
      let clustering = entry.Workloads.Registry.clustering app in
      let base_fb = entry.Workloads.Registry.default_fb in
      let cycles fb =
        let config = Morphosys.Config.m1 ~fb_set_size:fb in
        match Fixtures.cds (Sched.Sched_ctx.make app clustering) config with
        | Ok r ->
          Some
            (Msim.Executor.run config r.Cds.Complete_data_scheduler.schedule)
              .Msim.Metrics.total_cycles
        | Error _ -> None
      in
      let sweep =
        List.filter_map cycles
          [ base_fb; base_fb * 2; base_fb * 3; base_fb * 4 ]
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      Alcotest.(check bool)
        (name ^ " cycles non-increasing in FB size")
        true (non_increasing sweep))
    [ "e1"; "e2"; "e3"; "mpeg"; "atr-fi" ]

(* The interpreter agrees with the executor even with a priced DMA setup. *)
let test_interp_with_setup_cost () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let config =
    Morphosys.Config.make ~fb_set_size:1024 ~dma_setup_cycles:7 ()
  in
  match Fixtures.cds (Sched.Sched_ctx.make app clustering) config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let s = r.Cds.Complete_data_scheduler.schedule in
    let m = Msim.Executor.run config s in
    let interp = Interp.run config (Emit.program s) in
    Alcotest.(check int) "cycles agree" m.Msim.Metrics.total_cycles
      interp.Interp.cycles

let tests =
  ( "report",
    [
      Alcotest.test_case "csv shape" `Quick test_csv_shape;
      Alcotest.test_case "rows complete" `Quick test_rows_complete;
      Alcotest.test_case "dma setup cost" `Quick test_dma_setup_cost;
      Alcotest.test_case "cds monotone in fb" `Quick test_cds_monotone_in_fb;
      Alcotest.test_case "interp with setup cost" `Quick
        test_interp_with_setup_cost;
    ] )

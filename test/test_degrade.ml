(* Graceful failure: a DSE sweep whose every point task crashes still
   returns every point, each with a structured diagnostic. *)

let test_sweep_survives_crashing_point () =
  (* a raising pool prelude kills every design-point task; the sweep must
     still return every point, each infeasible with a structured
     diagnostic *)
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let fb_list = [ 1024; 8192 ] in
  Engine.Pool.with_task_prelude
    (fun _ -> failwith "felled")
    (fun () ->
      let points = Report.Dse.sweep ~jobs:2 ~fb_list app clustering in
      Alcotest.(check int) "all points returned" 6 (List.length points);
      List.iter
        (fun (p : Report.Dse.point) ->
          Alcotest.(check bool) "isolated as infeasible" false
            p.Report.Dse.feasible;
          match p.Report.Dse.diag with
          | Some d ->
            Alcotest.(check bool) "diagnosed as a crash" true
              (d.Diag.code = Diag.Task_crashed)
          | None -> Alcotest.fail "crashed point must carry a diagnostic")
        points)

let tests =
  ( "degrade",
    [
      Alcotest.test_case "sweep survives crashing points" `Quick
        test_sweep_survives_crashing_point;
    ] )

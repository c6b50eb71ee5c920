(* Graceful failure: hostile fuzzing and fault-isolated DSE sweeps. *)

let test_hostile_smoke () =
  let r = Report.Fuzz.run_hostile ~jobs:2 ~seed:42 ~count:40 () in
  Alcotest.(check bool)
    (Format.asprintf "no uncaught exceptions: %a" Report.Fuzz.pp_hostile r)
    true (Report.Fuzz.hostile_ok r);
  Alcotest.(check int) "every mutant accounted for" 40
    (r.Report.Fuzz.rejected + r.Report.Fuzz.survived
   + r.Report.Fuzz.h_faulted);
  Alcotest.(check bool) "mutations actually rejected" true
    (r.Report.Fuzz.rejected > 0)

let test_sweep_survives_crashing_point () =
  (* a pool fault at rate 1.0 kills every design-point task; the sweep
     must still return every point, each infeasible with a structured
     diagnostic *)
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let fb_list = [ 1024; 8192 ] in
  Engine.Faults.with_plan
    (Engine.Faults.plan ~rate:1.0 ~seed:9 ())
    (fun () ->
      let points = Report.Dse.sweep ~jobs:2 ~fb_list app clustering in
      Alcotest.(check int) "all points returned" 6 (List.length points);
      List.iter
        (fun (p : Report.Dse.point) ->
          Alcotest.(check bool) "isolated as infeasible" false
            p.Report.Dse.feasible;
          match p.Report.Dse.diag with
          | Some d ->
            Alcotest.(check bool) "diagnosed as injected" true
              (d.Diag.code = Diag.Fault_injected)
          | None -> Alcotest.fail "crashed point must carry a diagnostic")
        points)

let tests =
  ( "degrade",
    [
      Alcotest.test_case "hostile fuzz smoke" `Quick test_hostile_smoke;
      Alcotest.test_case "sweep survives crashing points" `Quick
        test_sweep_survives_crashing_point;
    ] )

(* Design-space exploration: sweep structure, CSV, best point and the
   Pareto frontier. *)

module Dse = Report.Dse

let points () =
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  Dse.sweep ~fb_list:[ 1024; 2048; 3072 ] app clustering

let test_sweep_shape () =
  let pts = points () in
  Alcotest.(check int) "3 sizes x 3 schedulers" 9 (List.length pts);
  (* MPEG at 1K: basic infeasible, ds/cds feasible (the paper's claim) *)
  let at fb scheduler =
    List.find
      (fun (p : Dse.point) ->
        p.Dse.fb_set_size = fb && p.Dse.scheduler = scheduler)
      pts
  in
  Alcotest.(check bool) "basic infeasible at 1K" false (at 1024 "basic").Dse.feasible;
  Alcotest.(check bool) "ds feasible at 1K" true (at 1024 "ds").Dse.feasible;
  Alcotest.(check bool) "cds feasible at 1K" true (at 1024 "cds").Dse.feasible;
  Alcotest.(check (option int)) "cds rf at 3K" (Some 4) (at 3072 "cds").Dse.rf

let test_best () =
  match Dse.best (points ()) with
  | None -> Alcotest.fail "no best point"
  | Some p ->
    Alcotest.(check string) "cds wins" "cds" p.Dse.scheduler;
    Alcotest.(check int) "at the largest FB" 3072 p.Dse.fb_set_size

let test_pareto () =
  let frontier = Dse.pareto (points ()) in
  Alcotest.(check bool) "non-empty" true (frontier <> []);
  (* frontier is ascending in size and strictly descending in cycles *)
  let rec check = function
    | (a : Dse.point) :: (b : Dse.point) :: rest ->
      Alcotest.(check bool) "sizes ascend" true (a.Dse.fb_set_size < b.Dse.fb_set_size);
      Alcotest.(check bool) "cycles descend" true
        (Option.get a.Dse.total_cycles > Option.get b.Dse.total_cycles);
      check (b :: rest)
    | _ -> ()
  in
  check frontier;
  (* every frontier point is feasible and undominated by the best point *)
  List.iter
    (fun (p : Dse.point) ->
      Alcotest.(check bool) "feasible" true p.Dse.feasible)
    frontier

let test_csv () =
  let csv = Dse.to_csv (points ()) in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 9 rows" 10 (List.length lines);
  Alcotest.(check bool) "infeasible rows have empty cells" true
    (List.exists (fun l -> Astring_contains.contains l "basic,false,,,,") lines)

let test_cm_and_setup_axes () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let pts =
    Dse.sweep ~cm_list:[ 100; 4096 ] ~setup_list:[ 0; 32 ]
      ~fb_list:[ 1024 ] app clustering
  in
  Alcotest.(check int) "1 x 2 x 2 x 3 points" 12 (List.length pts);
  (* a 100-word CM cannot hold a 128-context-word cluster *)
  List.iter
    (fun (p : Dse.point) ->
      if p.Dse.cm_capacity = 100 then
        Alcotest.(check bool) "tiny CM infeasible" false p.Dse.feasible)
    pts;
  (* setup cost only ever slows things down *)
  let cycles cm setup =
    (List.find
       (fun (p : Dse.point) ->
         p.Dse.cm_capacity = cm && p.Dse.dma_setup_cycles = setup
         && p.Dse.scheduler = "cds")
       pts)
      .Dse.total_cycles
  in
  match (cycles 4096 0, cycles 4096 32) with
  | Some free, Some priced ->
    Alcotest.(check bool) "setup cost slows down" true (priced > free)
  | _ -> Alcotest.fail "expected feasible points"

(* A bad axis value or an empty axis is refused before any design point
   runs, by the one check the CLI uses too. *)
let test_bad_axes () =
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let expected = "fb_set_size must be positive" in
  (match Dse.check_axes ~fb_list:[ 0 ] ~cm_list:[ 2048 ] ~setup_list:[ 0 ] with
  | Error d ->
    Alcotest.(check string) "check_axes" "INVALID_CONFIG"
      (Diag.code_name d.Diag.code);
    Alcotest.(check string) "message" expected d.Diag.message
  | Ok () -> Alcotest.fail "check_axes accepted fb 0");
  List.iter
    (fun (fb_list, cm_list, setup_list, field) ->
      (match Dse.check_axes ~fb_list ~cm_list ~setup_list with
      | Error d ->
        Alcotest.(check string) "empty axis" (field ^ " axis is empty")
          d.Diag.message
      | Ok () -> Alcotest.failf "check_axes accepted an empty %s axis" field);
      match Dse.sweep ~fb_list ~cm_list ~setup_list app clustering with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "sweep accepted an empty %s axis" field)
    [
      ([], [ 2048 ], [ 0 ], "fb_set_size");
      ([ 2048 ], [], [ 0 ], "cm_capacity");
      ([ 2048 ], [ 2048 ], [], "dma_setup_cycles");
    ];
  (match Dse.sweep ~fb_list:[ 0; 2048 ] app clustering with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "sweep names the check" true
      (Astring_contains.contains msg expected)
  | _ -> Alcotest.fail "sweep accepted fb 0");
  let path = Filename.temp_file "dse_axes" ".store" in
  Sys.remove path;
  (match
     Dse.Durable.open_ ~path ~setup_list:[ -5 ] ~fb_list:[ 2048 ] app
       clustering
   with
  | Error d ->
    Alcotest.(check string) "open_" "INVALID_CONFIG"
      (Diag.code_name d.Diag.code)
  | Ok d ->
    Dse.Durable.close d;
    Alcotest.fail "Durable.open_ accepted setup -5");
  Alcotest.(check bool) "no store created" false (Sys.file_exists path)

let tests =
  ( "dse",
    [
      Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
      Alcotest.test_case "best point" `Quick test_best;
      Alcotest.test_case "pareto frontier" `Quick test_pareto;
      Alcotest.test_case "csv" `Quick test_csv;
      Alcotest.test_case "cm and setup axes" `Quick test_cm_and_setup_axes;
      Alcotest.test_case "bad axes are refused" `Quick test_bad_axes;
    ] )

(* Determinism of the parallel DSE engine: jobs=N must reproduce jobs=1
   byte for byte, with and without a result store; a second sweep on the
   same open store must recompute nothing; fuzz reports must not depend
   on the job count. *)

module Dse = Report.Dse

let point = Alcotest.testable (Fmt.of_to_string (fun _ -> "<point>")) ( = )

let mpeg () =
  let app = Workloads.Mpeg.app () in
  (app, Workloads.Mpeg.clustering app)

let sweep ?jobs ?stats ?store (app, clustering) =
  Dse.sweep ?jobs ?stats ?store ~cm_list:[ 1024; 2048 ]
    ~setup_list:[ 0; 16 ] ~fb_list:[ 1024; 2048; 3072 ] app clustering

let test_jobs_deterministic () =
  let w = mpeg () in
  let reference = sweep ~jobs:1 w in
  Alcotest.(check int) "cross product size" 36 (List.length reference);
  List.iter
    (fun jobs ->
      let got = sweep ~jobs w in
      Alcotest.(check (list point))
        (Printf.sprintf "jobs=%d same points" jobs)
        reference got;
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d byte-identical csv" jobs)
        (Dse.to_csv reference) (Dse.to_csv got))
    [ 2; 4 ]

let test_store_deterministic () =
  let ((app, clustering) as w) = mpeg () in
  let reference = sweep ~jobs:1 w in
  let path = Filename.temp_file "msched_parallel" ".store" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let store =
    match
      Dse.Durable.open_ ~path ~cm_list:[ 1024; 2048 ] ~setup_list:[ 0; 16 ]
        ~fb_list:[ 1024; 2048; 3072 ] app clustering
    with
    | Ok d -> d
    | Error d -> Alcotest.failf "Durable.open_ failed: %s" (Diag.render d)
  in
  Fun.protect ~finally:(fun () -> Dse.Durable.close store) @@ fun () ->
  let cold = sweep ~jobs:4 ~store w in
  Alcotest.(check string) "fresh store byte-identical" (Dse.to_csv reference)
    (Dse.to_csv cold);
  Alcotest.(check int) "every point persisted" 36
    (Dse.Durable.completed store);
  let stats = Engine.Stats.create () in
  let warm = sweep ~jobs:4 ~store ~stats w in
  Alcotest.(check string) "second sweep byte-identical"
    (Dse.to_csv reference) (Dse.to_csv warm);
  Alcotest.(check int) "second sweep hit everything" 36
    (Engine.Stats.cache_hits stats);
  Alcotest.(check int) "no task ran on the second sweep" 0
    (Engine.Stats.tasks_run stats);
  (* the hits are the store's records, each re-validated and replayed *)
  Alcotest.(check int) "second sweep replayed everything" 36
    (Engine.Stats.store_replayed stats);
  Alcotest.(check int) "nothing quarantined" 0
    (Engine.Stats.store_quarantined stats);
  Alcotest.(check int) "no store warnings" 0
    (List.length (Dse.Durable.warnings store))

(* Three sweeps of the 72-point grid back to back in one process at
   jobs=2, cold, durable into a fresh store and resumed: the pool keeps its
   helper domains between them, and each CSV stays the jobs=1 one. *)
let test_back_to_back_sweeps () =
  let app, clustering = mpeg () in
  let fb_list = [ 512; 1024; 1536; 2048; 3072; 4096 ]
  and cm_list = [ 1024; 2048 ]
  and setup_list = [ 0; 16 ] in
  let csv ?store ?stats jobs =
    Dse.to_csv
      (Dse.sweep ~jobs ?store ?stats ~cm_list ~setup_list ~fb_list app
         clustering)
  in
  let reference = csv 1 in
  Alcotest.(check string) "cold at jobs=2" reference (csv 2);
  let path = Filename.temp_file "msched_back_to_back" ".store" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let with_store ?resume f =
    match
      Dse.Durable.open_ ?resume ~path ~cm_list ~setup_list ~fb_list app
        clustering
    with
    | Ok store ->
      Fun.protect ~finally:(fun () -> Dse.Durable.close store) (fun () ->
          f store)
    | Error d -> Alcotest.failf "Durable.open_ failed: %s" (Diag.render d)
  in
  with_store (fun store ->
      Alcotest.(check string) "durable at jobs=2" reference (csv ~store 2);
      Alcotest.(check int) "every point persisted" 72
        (Dse.Durable.completed store));
  let stats = Engine.Stats.create () in
  with_store ~resume:true (fun store ->
      Alcotest.(check string) "resumed at jobs=2" reference
        (csv ~store ~stats 2));
  Alcotest.(check int) "the resume replayed every point" 72
    (Engine.Stats.store_replayed stats)

let test_fuzz_jobs_deterministic () =
  let run jobs = Report.Fuzz.run ~jobs ~seed:7 ~count:12 () in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "same report for jobs=1 and jobs=4" true (r1 = r4);
  Alcotest.(check bool) "fuzz finds no bugs" true (Report.Fuzz.ok r1);
  Alcotest.(check int) "every schedule accounted for" (3 * 12)
    (r1.Report.Fuzz.schedules_checked + r1.Report.Fuzz.infeasible);
  (* rerunning the same seed reproduces the run exactly *)
  Alcotest.(check bool) "same seed reproduces" true (run 1 = r1)

let tests =
  ( "dse_parallel",
    [
      Alcotest.test_case "jobs=N byte-identical to jobs=1" `Quick
        test_jobs_deterministic;
      Alcotest.test_case "store preserves output at jobs=N" `Quick
        test_store_deterministic;
      Alcotest.test_case "fuzz independent of job count" `Quick
        test_fuzz_jobs_deterministic;
      Alcotest.test_case "back-to-back sweeps byte-identical at jobs=2" `Quick
        test_back_to_back_sweeps;
    ] )

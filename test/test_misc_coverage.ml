(* Coverage for the remaining public surfaces: the workload registry, trace
   timelines, schedule pretty-printing, the Figure 5 golden ordering and
   context-memory eviction on a real schedule. *)

let test_registry () =
  Alcotest.(check bool) "has entries" true (Workloads.Registry.all <> []);
  Alcotest.(check bool) "names match entries" true
    (List.length (Workloads.Registry.names ())
    = List.length Workloads.Registry.all);
  (match Workloads.Registry.find "mpeg" with
  | Some e ->
    Alcotest.(check int) "mpeg default fb" 2048 e.Workloads.Registry.default_fb;
    (* every registry entry builds and has a valid default clustering *)
    List.iter
      (fun (entry : Workloads.Registry.entry) ->
        let app = entry.Workloads.Registry.app () in
        match
          Kernel_ir.Cluster.check app (entry.Workloads.Registry.clustering app)
        with
        | [] -> ()
        | d :: _ ->
          Alcotest.fail (entry.Workloads.Registry.name ^ ": " ^ Diag.to_string d))
      Workloads.Registry.all
  | None -> Alcotest.fail "mpeg missing");
  Alcotest.(check bool) "unknown name" true (Workloads.Registry.find "nope" = None)

let test_trace_timeline_consistency () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let config = Fixtures.default_config in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Error e -> Alcotest.fail e
  | Ok s ->
    let metrics, timeline = Msim.Executor.run_timed config s in
    (* steps tile the total time with no gaps or overlaps *)
    let rec check prev_end = function
      | [] -> prev_end
      | (t : Msim.Executor.timed_step) :: rest ->
        Alcotest.(check int) "contiguous" prev_end t.Msim.Executor.start_cycle;
        Alcotest.(check bool) "duration = max(compute,dma)" true
          (t.Msim.Executor.end_cycle - t.Msim.Executor.start_cycle
          = max t.Msim.Executor.compute_cost t.Msim.Executor.dma_cost);
        check t.Msim.Executor.end_cycle rest
    in
    Alcotest.(check int) "tiles the run" metrics.Msim.Metrics.total_cycles
      (check 0 timeline)

let test_schedule_pp () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let ctx = Sched.Sched_ctx.make app clustering in
  match Fixtures.run "ds" ctx Fixtures.default_config with
  | Error e -> Alcotest.fail e
  | Ok s ->
    let text = Format.asprintf "%a" Sched.Schedule.pp s in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("pp mentions " ^ needle) true
          (Astring_contains.contains text needle))
      [ "ds:"; "rf="; "step 0"; "compute Cl0"; "load " ]

let test_figure5_snapshot_order () =
  (* golden ordering of the Figure 5 snapshot captions: load phase, then
     kernel-major execution (k1 twice, k2 twice, k3 twice) *)
  let app = Workloads.Synthetic.figure5 () in
  let clustering = Workloads.Synthetic.figure5_clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:512 in
  let ctx = Sched.Sched_ctx.make app clustering in
  match Fixtures.cds ctx config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let focus = Workloads.Synthetic.figure5_focus_cluster in
    let result =
      Cds.Allocation_algorithm.run
        ~capture:(fun ~cluster_id -> cluster_id = focus)
        config ~analysis:(Sched.Sched_ctx.analysis ctx)
        ~rf:r.Cds.Complete_data_scheduler.rf
        ~retention:r.Cds.Complete_data_scheduler.retention ~round:0
    in
    let captions =
      List.map
        (fun (s : Cds.Allocation_algorithm.snapshot) ->
          s.Cds.Allocation_algorithm.caption)
        result.Cds.Allocation_algorithm.snapshots
    in
    Alcotest.(check (list string)) "figure caption sequence"
      [
        "pre-Cl2"; "Cl2-load"; "Cl2-k1#0"; "Cl2-k1#1"; "Cl2-k2#0"; "Cl2-k2#1";
        "Cl2-k3#0"; "Cl2-k3#1"; "post-Cl2";
      ]
      captions

let test_interp_eviction_on_real_workload () =
  (* E3 has 3.5K context words against a 2K CM: the interpreter must evict
     context sets while replaying, and still match the executor *)
  let e = Workloads.Table1.by_id "E3" in
  let ctx =
    Sched.Sched_ctx.make e.Workloads.Table1.app e.Workloads.Table1.clustering
  in
  match Fixtures.cds ctx e.Workloads.Table1.config with
  | Error err -> Alcotest.fail err
  | Ok r ->
    let s = r.Cds.Complete_data_scheduler.schedule in
    let interp =
      Interp.run e.Workloads.Table1.config (Emit.program s)
    in
    Alcotest.(check bool) "evictions happened" true
      (interp.Interp.context_evictions > 0);
    Alcotest.(check int) "still cycle-exact"
      (Msim.Executor.run e.Workloads.Table1.config s).Msim.Metrics.total_cycles
      interp.Interp.cycles

let test_improvement_helpers_on_infeasible_cds () =
  (* a machine too small for anything: every helper degrades gracefully *)
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let config = Morphosys.Config.make ~fb_set_size:16 ~cm_capacity:64 () in
  let c = Cds.Pipeline.run config app clustering in
  Alcotest.(check bool) "cds infeasible" true (Result.is_error c.Cds.Pipeline.cds);
  Alcotest.(check (option (float 1.))) "no cds improvement" None
    (Cds.Pipeline.improvement c `Cds);
  Alcotest.(check (option int)) "no dt" None (Cds.Pipeline.dt_words c);
  Alcotest.(check (option int)) "no rf" None (Cds.Pipeline.ds_rf c)

let test_spec_file_loads () =
  (* the shipped sample spec parses (a test dependency in test/dune) *)
  (match Appdsl.load_file "../examples/specs/edge_detect.app" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    Alcotest.(check string) "name" "edge_detect"
      spec.Appdsl.app.Kernel_ir.Application.name);
  Alcotest.(check bool) "missing file reported" true
    (Result.is_error (Appdsl.load_file "/nonexistent.app"))

let tests =
  ( "misc_coverage",
    [
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "trace timeline" `Quick test_trace_timeline_consistency;
      Alcotest.test_case "schedule pp" `Quick test_schedule_pp;
      Alcotest.test_case "figure 5 caption order" `Quick
        test_figure5_snapshot_order;
      Alcotest.test_case "interp eviction (E3)" `Quick
        test_interp_eviction_on_real_workload;
      Alcotest.test_case "infeasible helpers" `Quick
        test_improvement_helpers_on_infeasible_cds;
      Alcotest.test_case "spec file" `Quick test_spec_file_loads;
    ] )

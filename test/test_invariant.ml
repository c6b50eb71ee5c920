(* Iteration-invariant constant tables: footprint accounting, scheduling
   traffic, retention across rounds, and allocation. *)

module Data = Kernel_ir.Data
module Schedule = Sched.Schedule

(* Two clusters; k0 and k2 (set A) both read a 200-word constant table;
   every cluster also has ordinary per-iteration data. *)
let app_with_table () =
  Kernel_ir.Builder.(
    create "tabled" ~iterations:12
    |> kernel "k0" ~contexts:64 ~cycles:100
    |> kernel "k1" ~contexts:64 ~cycles:100
    |> kernel "k2" ~contexts:64 ~cycles:100
    |> kernel "k3" ~contexts:64 ~cycles:100
    |> input ~invariant:true "tbl" ~size:200 ~consumers:[ "k0"; "k2" ]
    |> input "d0" ~size:60 ~consumers:[ "k0" ]
    |> input "d1" ~size:60 ~consumers:[ "k1" ]
    |> input "d2" ~size:60 ~consumers:[ "k2" ]
    |> input "d3" ~size:60 ~consumers:[ "k3" ]
    |> final "o0" ~size:30 ~producer:"k0"
    |> final "o1" ~size:30 ~producer:"k1"
    |> final "o2" ~size:30 ~producer:"k2"
    |> final "o3" ~size:30 ~producer:"k3"
    |> build)

let clustering app = Kernel_ir.Cluster.of_partition app [ 1; 1; 1; 1 ]

let test_validation () =
  (match
     Data.make ~invariant:true ~id:0 ~name:"bad" ~size:8
       ~producer:(Data.Produced_by 0) ~consumers:[ 1 ] ~final:false ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invariant results must be rejected");
  let app = app_with_table () in
  Alcotest.(check bool) "flag set" true
    (Kernel_ir.Application.data_by_name app "tbl").Data.invariant;
  let tbl = Kernel_ir.Application.data_by_name app "tbl" in
  Alcotest.(check int) "instance iter pinned to 0" 0 (Data.instance_iter tbl 7);
  let d0 = Kernel_ir.Application.data_by_name app "d0" in
  Alcotest.(check int) "ordinary instance iter" 7 (Data.instance_iter d0 7)

let test_split_footprint () =
  let app = app_with_table () in
  let clustering = clustering app in
  let splits = Sched.Data_scheduler.footprints_split app clustering in
  (* cluster 0: per-iteration d0+o0 = 90, constant table 200 *)
  Alcotest.(check (pair int int)) "cluster 0" (90, 200) (List.nth splits 0);
  Alcotest.(check (pair int int)) "cluster 1 has no constant" (90, 0)
    (List.nth splits 1);
  (* the constant is charged once: rf = (fbs - 200) / 90 *)
  Alcotest.(check int) "rf accounts table once" 9
    (Sched.Reuse_factor.common_split ~fb_set_size:1024
       ~footprints:splits ~iterations:100)

let test_ds_loads_once_per_round () =
  let app = app_with_table () in
  let clustering = clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:1024 in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Msim.Validate.check_exn s;
    let rounds = Schedule.rounds s in
    let tbl_loads =
      Msutil.Listx.sum_by
        (fun (step : Schedule.step) ->
          List.length
            (List.filter
               (fun (tr : Morphosys.Dma.t) ->
                 tr.Morphosys.Dma.label = "tbl@0"
                 && Morphosys.Dma.is_data tr.Morphosys.Dma.kind)
               step.Schedule.dma))
        s.Schedule.steps
    in
    (* two consumer clusters, one load each per round — not per iteration *)
    Alcotest.(check int) "table loads" (2 * rounds) tbl_loads;
    Alcotest.(check bool) "fewer than per-iteration" true
      (tbl_loads < 2 * app.Kernel_ir.Application.iterations)

let test_cds_retains_across_rounds () =
  let app = app_with_table () in
  let clustering = clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:1024 in
  match Fixtures.cds (Sched.Sched_ctx.make app clustering) config with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let s = r.Cds.Complete_data_scheduler.schedule in
    Msim.Validate.check_exn s;
    let retained_names =
      List.map
        (fun c -> (Cds.Sharing.data c).Data.name)
        r.Cds.Complete_data_scheduler.retention.Cds.Retention.retained
    in
    Alcotest.(check bool) "table retained" true
      (List.mem "tbl" retained_names);
    let tbl_loads =
      Msutil.Listx.sum_by
        (fun (step : Schedule.step) ->
          List.length
            (List.filter
               (fun (tr : Morphosys.Dma.t) ->
                 tr.Morphosys.Dma.label = "tbl@0"
                 && Morphosys.Dma.is_data tr.Morphosys.Dma.kind)
               step.Schedule.dma))
        s.Schedule.steps
    in
    Alcotest.(check int) "loaded exactly once for the whole run" 1 tbl_loads;
    (* and the CDS beats DS thanks to the table *)
    (match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
    | Ok ds ->
      let cycles x = (Msim.Executor.run config x).Msim.Metrics.total_cycles in
      Alcotest.(check bool) "cds faster than ds" true (cycles s < cycles ds)
    | Error e -> Alcotest.fail e)

let test_allocation_single_copy () =
  let app = app_with_table () in
  let clustering = clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:1024 in
  match Cds.Pipeline.allocation_report config app clustering with
  | Error e -> Alcotest.fail e
  | Ok result ->
    Alcotest.(check (list string)) "no failures" []
      result.Cds.Allocation_algorithm.failures;
    let cells =
      List.concat_map
        (fun (s : Cds.Allocation_algorithm.snapshot) ->
          Array.to_list s.Cds.Allocation_algorithm.cells
          |> List.filter_map (fun c -> c))
        result.Cds.Allocation_algorithm.snapshots
    in
    Alcotest.(check bool) "single table copy" true (List.mem "tbl@0" cells);
    Alcotest.(check bool) "no per-iteration copies" false
      (List.exists
         (fun c ->
           String.length c > 4 && String.sub c 0 4 = "tbl@" && c <> "tbl@0")
         cells)

let test_dsl_invariant_round_trip () =
  let text =
    "app t iterations 4\n\
     kernel k contexts 8 cycles 10\n\
     input tbl size 64 invariant -> k\n\
     input d size 16 -> k\n\
     final o size 8 from k\n"
  in
  match Appdsl.parse text with
  | Error e -> Alcotest.fail (Diag.to_string e)
  | Ok spec ->
    let tbl = Kernel_ir.Application.data_by_name spec.Appdsl.app "tbl" in
    Alcotest.(check bool) "parsed invariant" true tbl.Data.invariant;
    (match Appdsl.parse (Appdsl.render spec) with
    | Ok spec2 ->
      Alcotest.(check bool) "round-tripped invariant" true
        (Kernel_ir.Application.data_by_name spec2.Appdsl.app "tbl").Data.invariant
    | Error e -> Alcotest.fail (Diag.to_string e))

let tests =
  ( "invariant_data",
    [
      Alcotest.test_case "validation & instances" `Quick test_validation;
      Alcotest.test_case "split footprint" `Quick test_split_footprint;
      Alcotest.test_case "ds loads once per round" `Quick
        test_ds_loads_once_per_round;
      Alcotest.test_case "cds retains across rounds" `Quick
        test_cds_retains_across_rounds;
      Alcotest.test_case "allocation single copy" `Quick
        test_allocation_single_copy;
      Alcotest.test_case "dsl round trip" `Quick test_dsl_invariant_round_trip;
    ] )

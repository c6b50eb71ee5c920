(* Executor timing model, validator violation detection and trace
   rendering. *)

module Schedule = Sched.Schedule
module Dma = Morphosys.Dma
module Fb = Morphosys.Frame_buffer
module Metrics = Msim.Metrics

let config = Morphosys.Config.m1 ~fb_set_size:1024

let ds_schedule () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* A tiny hand-rolled schedule (not semantically meaningful) to pin down
   the timing arithmetic. *)
let hand_schedule () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let c0 = Kernel_ir.Cluster.find clustering 0 in
  let steps =
    [
      {
        Schedule.compute = None;
        dma = [ Dma.data_load ~set:Fb.Set_a ~label:"a@0" ~words:100 ];
        note = "prime";
      };
      {
        Schedule.compute =
          Some
            {
              Schedule.cluster = c0;
              round = 0;
              iterations = 1;
              compute_cycles = 400;
            };
        dma = [ Dma.data_load ~set:Fb.Set_b ~label:"b@0" ~words:150 ];
        note = "";
      };
      {
        Schedule.compute = None;
        dma = [ Dma.data_store ~set:Fb.Set_a ~label:"a@0" ~words:50 ];
        note = "drain";
      };
    ]
  in
  {
    Schedule.scheduler = "hand";
    app;
    clustering;
    rf = 1;
    cross_set = false;
    steps;
  }

let test_executor_arithmetic () =
  let m, timeline = Msim.Executor.run_timed config (hand_schedule ()) in
  (* step durations: 100 (dma only), max(400, 150) = 400, 50 *)
  Alcotest.(check int) "total" 550 m.Metrics.total_cycles;
  Alcotest.(check int) "compute" 400 m.Metrics.compute_cycles;
  Alcotest.(check int) "dma busy" 300 m.Metrics.dma_cycles;
  Alcotest.(check int) "overlap" 150 m.Metrics.overlapped_dma_cycles;
  Alcotest.(check int) "stall" 150 m.Metrics.stall_cycles;
  Alcotest.(check int) "loads" 250 m.Metrics.data_words_loaded;
  Alcotest.(check int) "stores" 50 m.Metrics.data_words_stored;
  Alcotest.(check int) "steps" 3 m.Metrics.steps;
  let second = List.nth timeline 1 in
  Alcotest.(check int) "second step start" 100 second.Msim.Executor.start_cycle;
  Alcotest.(check int) "second step end" 500 second.Msim.Executor.end_cycle

let test_improvement () =
  let base = { (Msim.Executor.run config (hand_schedule ())) with Metrics.total_cycles = 1000 } in
  let faster = { base with Metrics.total_cycles = 600 } in
  Alcotest.(check (float 1e-6)) "40%" 40. (Metrics.improvement_over ~baseline:base faster);
  Alcotest.(check (float 1e-6)) "degenerate baseline" 0.
    (Metrics.improvement_over
       ~baseline:{ base with Metrics.total_cycles = 0 }
       faster)

let test_validator_accepts_real_schedules () =
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (Format.asprintf "%a" Msim.Validate.pp_violation)
       (Msim.Validate.check (ds_schedule ())))

let count_violations s = List.length (Msim.Validate.check s)

let test_validator_catches_missing_load () =
  let s = ds_schedule () in
  (* drop every load of datum 'a': kernels k0/k2 read it unloaded *)
  let steps =
    List.map
      (fun (step : Schedule.step) ->
        {
          step with
          Schedule.dma =
            List.filter
              (fun (tr : Dma.t) ->
                match Schedule.parse_label tr.Dma.label with
                | Some ("a", _) ->
                  (match tr.Dma.kind with
                  | Dma.Data { direction = Dma.Load; _ } -> false
                  | _ -> true)
                | _ -> true)
              step.Schedule.dma;
        })
      s.Schedule.steps
  in
  Alcotest.(check bool) "violations reported" true
    (count_violations { s with Schedule.steps } > 0)

let test_validator_catches_missing_final_store () =
  let s = ds_schedule () in
  let steps =
    List.map
      (fun (step : Schedule.step) ->
        {
          step with
          Schedule.dma =
            List.filter
              (fun (tr : Dma.t) ->
                match Schedule.parse_label tr.Dma.label with
                | Some ("f3", _) -> false
                | _ -> true)
              step.Schedule.dma;
        })
      s.Schedule.steps
  in
  let violations = Msim.Validate.check { s with Schedule.steps } in
  Alcotest.(check bool) "missing final store caught" true
    (List.exists
       (fun (v : Msim.Validate.violation) ->
         Astring_contains.contains v.Msim.Validate.message "never stored")
       violations)

let test_validator_catches_set_conflict () =
  let s = ds_schedule () in
  (* inject a transfer that touches the computing cluster's own set *)
  let steps =
    List.map
      (fun (step : Schedule.step) ->
        match step.Schedule.compute with
        | Some c ->
          let bad =
            Dma.data_load
              ~set:c.Schedule.cluster.Kernel_ir.Cluster.fb_set
              ~label:"a@0" ~words:4
          in
          { step with Schedule.dma = bad :: step.Schedule.dma }
        | None -> step)
      s.Schedule.steps
  in
  let violations = Msim.Validate.check { s with Schedule.steps } in
  Alcotest.(check bool) "conflict caught" true
    (List.exists
       (fun (v : Msim.Validate.violation) ->
         Astring_contains.contains v.Msim.Validate.message "computing set")
       violations)

let test_validator_catches_unknown_data () =
  let s = ds_schedule () in
  let steps =
    match s.Schedule.steps with
    | first :: rest ->
      {
        first with
        Schedule.dma =
          Dma.data_load ~set:Fb.Set_a ~label:"ghost@0" ~words:4
          :: first.Schedule.dma;
      }
      :: rest
    | [] -> []
  in
  let violations = Msim.Validate.check { s with Schedule.steps } in
  Alcotest.(check bool) "unknown data caught" true
    (List.exists
       (fun (v : Msim.Validate.violation) ->
         Astring_contains.contains v.Msim.Validate.message "unknown data")
       violations)

let test_validator_check_exn () =
  match Msim.Validate.check_exn (hand_schedule ()) with
  | exception Failure _ -> () (* hand schedule is not semantically valid *)
  | () -> Alcotest.fail "expected failure on the hand schedule"

let test_trace_render () =
  let s = ds_schedule () in
  let text = Msim.Trace.render config s in
  Alcotest.(check bool) "mentions scheduler" true
    (Astring_contains.contains text "ds");
  Alcotest.(check bool) "mentions cycles" true
    (Astring_contains.contains text "total=");
  let gantt = Msim.Trace.render_gantt config s in
  Alcotest.(check bool) "has RC row" true (Astring_contains.contains gantt "RC ");
  Alcotest.(check bool) "has DMA row" true (Astring_contains.contains gantt "DMA")

let tests =
  ( "sim",
    [
      Alcotest.test_case "executor arithmetic" `Quick test_executor_arithmetic;
      Alcotest.test_case "improvement" `Quick test_improvement;
      Alcotest.test_case "validator accepts real schedules" `Quick
        test_validator_accepts_real_schedules;
      Alcotest.test_case "validator: missing load" `Quick
        test_validator_catches_missing_load;
      Alcotest.test_case "validator: missing final store" `Quick
        test_validator_catches_missing_final_store;
      Alcotest.test_case "validator: set conflict" `Quick
        test_validator_catches_set_conflict;
      Alcotest.test_case "validator: unknown data" `Quick
        test_validator_catches_unknown_data;
      Alcotest.test_case "validator: check_exn" `Quick test_validator_check_exn;
      Alcotest.test_case "trace render" `Quick test_trace_render;
    ] )

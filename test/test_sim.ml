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

(* A check of a small schedule sizes its tables to the schedule, so
   nothing it allocates is big enough to go straight to the major heap
   (blocks above 256 words do; one 1,024-bucket table is such a block).
   The minor heap is emptied first, so nothing is promoted during the
   check. [Gc.counters] reads this domain's major words, direct
   allocations included, at once; [Gc.quick_stat] adds those only at the
   next collection and sums every domain, kept pool helpers too. *)
let test_validator_small_allocation () =
  let s = ds_schedule () in
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  Gc.minor ();
  let before = major_words () in
  let violations = Msim.Validate.check s in
  let words = major_words () -. before in
  Alcotest.(check int) "no violations" 0 (List.length violations);
  Alcotest.(check bool)
    (Printf.sprintf "one check added %.0f major words (< 1024)" words)
    true (words < 1024.)

(* Golden violation lists. Every registry scheduler's schedule of E1-E3,
   MPEG and two 100-kernel random apps (400 objects x 16 iterations) is
   checked as built and corrupted five ways. Each workload's rendered
   violations (scheduler, case, step index and message, in order) are
   pinned as a count and an MD5, so a change to the validator's internals
   that moves a verdict, a message or their order shows here. *)

(* Drop every [k]-th transfer of the schedule, counting across steps. *)
let drop_every k (s : Schedule.t) =
  let _, steps =
    List.fold_left_map
      (fun seen (step : Schedule.step) ->
        let dma = step.Schedule.dma in
        ( seen + List.length dma,
          {
            step with
            Schedule.dma =
              List.filteri (fun j _ -> (seen + j + 1) mod k <> 0) dma;
          } ))
      0 s.Schedule.steps
  in
  { s with Schedule.steps }

(* Load an instance of the app's first datum into the computing set of
   every third computation. *)
let load_into_computing_set (s : Schedule.t) =
  let d = List.hd s.Schedule.app.Kernel_ir.Application.data in
  let steps =
    List.mapi
      (fun i (step : Schedule.step) ->
        match step.Schedule.compute with
        | Some c when i mod 3 = 0 ->
          let label =
            Schedule.instance_label d.Kernel_ir.Data.name
              ~iter:(c.Schedule.round * s.Schedule.rf)
          in
          let bad =
            Dma.data_load ~set:c.Schedule.cluster.Kernel_ir.Cluster.fb_set
              ~label ~words:4
          in
          { step with Schedule.dma = bad :: step.Schedule.dma }
        | _ -> step)
      s.Schedule.steps
  in
  { s with Schedule.steps }

(* A load and a store of an unknown datum and a load with no iteration, in
   the first step. *)
let add_ghost (s : Schedule.t) =
  match s.Schedule.steps with
  | first :: rest ->
    let ghost =
      [
        Dma.data_load ~set:Fb.Set_a ~label:"ghost@0" ~words:4;
        Dma.data_store ~set:Fb.Set_b ~label:"ghost@0" ~words:4;
        Dma.data_load ~set:Fb.Set_a ~label:"ghost" ~words:4;
      ]
    in
    let first = { first with Schedule.dma = ghost @ first.Schedule.dma } in
    { s with Schedule.steps = first :: rest }
  | [] -> s

(* Run the middle step a second time, right after itself, and drop the
   computation of the last step that has one. *)
let repeat_and_drop_steps (s : Schedule.t) =
  let n = List.length s.Schedule.steps in
  let last_compute =
    List.fold_left
      (fun (i, last) (step : Schedule.step) ->
        (i + 1, if Option.is_some step.Schedule.compute then i else last))
      (0, -1) s.Schedule.steps
    |> snd
  in
  let steps =
    List.concat
      (List.mapi
         (fun i (step : Schedule.step) ->
           let step =
             if i = last_compute then { step with Schedule.compute = None }
             else step
           in
           if i = n / 2 then [ step; step ] else [ step ])
         s.Schedule.steps)
  in
  { s with Schedule.steps }

(* Start with a step that loads and stores four stray instances per
   (object, iteration) instance of the app, each of the first datum at an
   iteration past the last: the validator's residency and store tables
   then hold more entries than they are first sized for before the real
   steps are checked. *)
let stray_instances (s : Schedule.t) =
  let { Kernel_ir.Application.data; iterations; _ } = s.Schedule.app in
  let d = (List.hd data).Kernel_ir.Data.name in
  let n = 4 * List.length data * iterations in
  let label j = Schedule.instance_label d ~iter:(iterations + j) in
  let dma =
    List.init n (fun j ->
        Dma.data_load ~set:Fb.Set_a ~label:(label j) ~words:1)
    @ List.init n (fun j ->
          Dma.data_store ~set:Fb.Set_a ~label:(label j) ~words:1)
  in
  let stray = { Schedule.compute = None; dma; note = "stray" } in
  { s with Schedule.steps = stray :: s.Schedule.steps }

let corruptions =
  [
    ("as built", Fun.id);
    ("drop every 7th transfer", drop_every 7);
    ("load into the computing set", load_into_computing_set);
    ("ghost transfers", add_ghost);
    ("repeat and drop steps", repeat_and_drop_steps);
    ("stray instances", stray_instances);
  ]

let rendered_violations ctx config =
  List.concat_map
    (fun name ->
      match Sched.Scheduler_registry.run name ctx config with
      | Error d ->
        [ Printf.sprintf "%s: infeasible: %s" name (Diag.to_string d) ]
      | Ok s ->
        List.concat_map
          (fun (case, corrupt) ->
            List.map
              (fun v ->
                Format.asprintf "%s/%s: %a" name case
                  Msim.Validate.pp_violation v)
              (Msim.Validate.check (corrupt s)))
          corruptions)
    (Sched.Scheduler_registry.names ())

(* Recorded with the validator's tables created at a fixed 1,024 buckets. *)
let golden_violations =
  [
    ("E1", (1006, "a684f607adb3fc3c6c5eb8c7c4e3e9f0"));
    ("E2", (419, "4b5508e1d4475f27c84fbc24c8060d7e"));
    ("E3", (665, "7ed42948223e2db5ececb890071e10e8"));
    ("MPEG", (557, "d2a3ed3eff9f8a625b2cc23c70490df5"));
    ("large-s1", (6172, "30cefd98f0c70b8af327f2393b196dd8"));
    ("large-s2", (6165, "71778451ab26b4c5187809e9a389f92f"));
  ]

let test_validator_golden () =
  let large seed =
    let app = Workloads.Random_app.large ~kernels:100 ~data:200 ~seed in
    ( Printf.sprintf "large-s%d" seed,
      Sched.Sched_ctx.make app (Workloads.Random_app.pairs_clustering app),
      Morphosys.Config.make ~fb_set_size:8192 ~cm_capacity:4096 () )
  in
  let table1 id =
    let e = Workloads.Table1.by_id id in
    ( id,
      Sched.Sched_ctx.make e.Workloads.Table1.app e.Workloads.Table1.clustering,
      e.Workloads.Table1.config )
  in
  List.iter
    (fun (id, ctx, config) ->
      let lines = rendered_violations ctx config in
      Alcotest.(check (pair int string))
        (id ^ " violations: count and MD5")
        (List.assoc id golden_violations)
        ( List.length lines,
          Digest.to_hex (Digest.string (String.concat "\n" lines)) ))
    (List.map table1 [ "E1"; "E2"; "E3"; "MPEG" ] @ List.map large [ 1; 2 ])

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
      Alcotest.test_case "validator: golden violation lists" `Quick
        test_validator_golden;
      Alcotest.test_case "validator: small check stays in the minor heap"
        `Quick test_validator_small_allocation;
      Alcotest.test_case "trace render" `Quick test_trace_render;
    ] )

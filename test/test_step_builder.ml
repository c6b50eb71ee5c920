(* The step pipeline builder: overlap legality, wrap-around conflict stalls
   with an odd cluster count, and the cost estimator's agreement with the
   simulator. *)

module Schedule = Sched.Schedule
module Dma = Morphosys.Dma

let config = Fixtures.default_config

let test_even_cluster_count_has_no_stalls () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "no conflict stall steps" 0
      (List.length
         (List.filter
            (fun (step : Schedule.step) ->
              step.Schedule.note = "set conflict stall")
            s.Schedule.steps))

let test_odd_cluster_count_stalls_at_wraparound () =
  (* three clusters: A B A — preparing next round's cluster 0 (set A) cannot
     overlap cluster 2's computation (also set A). The FB is sized so RF=1,
     forcing several rounds and thus wrap-arounds. *)
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:160 in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Error e -> Alcotest.fail e
  | Ok s ->
    let stalls =
      List.filter
        (fun (step : Schedule.step) ->
          step.Schedule.note = "set conflict stall")
        s.Schedule.steps
    in
    Alcotest.(check bool) "wrap-around stalls exist" true (stalls <> []);
    (* stall steps are pure DMA *)
    List.iter
      (fun (step : Schedule.step) ->
        Alcotest.(check bool) "no compute in stall" true
          (step.Schedule.compute = None);
        Alcotest.(check bool) "stall moves data" true (step.Schedule.dma <> []))
      stalls;
    (* and still everything validates *)
    Msim.Validate.check_exn s

let test_overlap_legality_in_all_steps () =
  let app = Fixtures.same_set () in
  let clustering = Fixtures.same_set_clustering app in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Error e -> Alcotest.fail e
  | Ok s ->
    List.iter
      (fun (step : Schedule.step) ->
        match step.Schedule.compute with
        | None -> ()
        | Some c ->
          let cset = c.Schedule.cluster.Kernel_ir.Cluster.fb_set in
          List.iter
            (fun (tr : Dma.t) ->
              match tr.Dma.kind with
              | Dma.Data { set; _ } ->
                Alcotest.(check bool) "no transfer touches computing set" true
                  (set <> cset)
              | Dma.Context -> ())
            step.Schedule.dma)
      s.Schedule.steps

let test_rf_validation () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  match
    Sched.Step_builder.build config app clustering ~rf:0
      ~ctx_plan:
        (Result.get_ok (Sched.Context_scheduler.plan_app config app clustering))
      ~generators:(Sched.Xfer_gen.plain app clustering)
      ~scheduler:"x"
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rf 0 must be rejected"

let test_xfer_gen_plain_vs_store_everything () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  let c0 = Kernel_ir.Cluster.find clustering 0 in
  let plain = Sched.Xfer_gen.plain app clustering in
  let all = Sched.Xfer_gen.store_everything app clustering in
  (* the words a table row moves in one round of [iters] iterations: one
     instance per iteration, one in all for an invariant object *)
  let words ~iters table =
    Msutil.Listx.sum_by
      (fun (d : Kernel_ir.Data.t) ->
        if d.Kernel_ir.Data.invariant then d.size else iters * d.size)
      table.(c0.Kernel_ir.Cluster.id)
  in
  let stored (sel : Sched.Step_builder.selectors) = words ~iters:1 sel.stored in
  (* cluster 0 outliving = r03 + f1 = 55; plus intermediate r01 (40) when
     storing everything *)
  Alcotest.(check int) "plain stores outliving" 55 (stored plain);
  Alcotest.(check int) "basic stores everything" 95 (stored all);
  (* loads are identical *)
  let load_words (sel : Sched.Step_builder.selectors) =
    words ~iters:2 sel.first_loads
  in
  Alcotest.(check int) "same loads" (load_words plain) (load_words all);
  Alcotest.(check int) "two iterations of a+b" 300 (load_words plain)

(* The scheduler-side cost estimate is exactly the simulator's total. *)
let prop_cost_estimate_equals_executor =
  QCheck.Test.make ~name:"Schedule_cost.estimate = Executor cycles" ~count:100
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let config = Fixtures.big_config in
      let agree = function
        | Ok (s : Schedule.t) ->
          Sched.Schedule_cost.estimate config s
          = (Msim.Executor.run config s).Msim.Metrics.total_cycles
        | Error _ -> false
      in
      let ctx = Sched.Sched_ctx.make app clustering in
      List.for_all
        (fun name -> agree (Sched.Scheduler_registry.run name ctx config))
        [ "basic"; "ds"; "cds" ])

let test_context_partial_pinning () =
  (* four singleton clusters with contexts 100/50/50/50 and a 240-word CM:
     pinning the 100-word set leaves a 100-word rotation pair (fits), but
     pinning any 50-word set on top would need 250 words *)
  let app =
    Kernel_ir.Builder.(
      create "ctxmix" ~iterations:2
      |> kernel "ka" ~contexts:100 ~cycles:50
      |> kernel "kb" ~contexts:50 ~cycles:50
      |> kernel "kc" ~contexts:50 ~cycles:50
      |> kernel "kd" ~contexts:50 ~cycles:50
      |> input "d" ~size:16 ~consumers:[ "ka"; "kb"; "kc"; "kd" ]
      |> final "o" ~size:8 ~producer:"kd"
      |> build)
  in
  let clustering = Kernel_ir.Cluster.singleton_per_kernel app in
  let config = Morphosys.Config.make ~fb_set_size:1024 ~cm_capacity:240 () in
  match Sched.Context_scheduler.plan_app config app clustering with
  | Error d -> Alcotest.fail (Diag.to_string d)
  | Ok plan ->
    Alcotest.(check (list int)) "the big cluster is pinned" [ 0 ]
      plan.Sched.Context_scheduler.pinned;
    Alcotest.(check (list int)) "the rest reload" [ 1; 2; 3 ]
      plan.Sched.Context_scheduler.reloaded;
    let pinned_cluster = List.hd plan.Sched.Context_scheduler.pinned in
    Alcotest.(check int) "pinned loads once" 0
      (Sched.Context_scheduler.load_words_for_round plan ~app
         ~cluster:(Kernel_ir.Cluster.find clustering pinned_cluster)
         ~round:2)

(* Allocation gate for the transfer path: building the MPEG Basic schedule
   (FB 2048, CM 1024, DMA setup 16; 1,200 transfers) through the scheduler
   driver may allocate at most [words_per_transfer_max] minor words per
   transfer it emits. Rendering each label with [Printf] and copying the
   step lists cost 92.2 words per transfer; the lean path takes 19.8
   (label, record and list cell, about 10 words, are what the schedule
   keeps), and the bound is that plus 25%. The count is deterministic on
   one domain, so a regression shows without timing noise. *)
let words_per_transfer_max = 24.8

let test_basic_build_allocation () =
  let app = Workloads.Mpeg.app () in
  let ctx = Sched.Sched_ctx.make app (Workloads.Mpeg.clustering app) in
  let config =
    Morphosys.Config.make ~fb_set_size:2048 ~cm_capacity:1024
      ~dma_setup_cycles:16 ()
  in
  let before = Gc.minor_words () in
  let s =
    match Fixtures.run "basic" ctx config with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let words = Gc.minor_words () -. before in
  let transfers =
    List.fold_left
      (fun n (step : Schedule.step) -> n + List.length step.Schedule.dma)
      0 s.Schedule.steps
  in
  let per_transfer = words /. float_of_int transfers in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per transfer <= %.1f" per_transfer
       words_per_transfer_max)
    true
    (per_transfer <= words_per_transfer_max)

(* Allocation gate for pricing: a CDS price runs [estimate] once per
   candidate RF on the rows of that RF's retention walk. [estimate] walks
   at most four rounds with integer arithmetic alone, so what a price
   allocates does not depend on the iteration count: at 60 and at 6,000
   iterations it may differ by 16 words at most (it differs by none).
   Selecting every execution's objects again cost 16.7k minor words for
   the CDS price of the MPEG point above and 1.35M at 6,000 iterations;
   summing the per-cluster tables once per candidate RF took 3.8k at both
   counts. Binding the scheduler to its context makes the tables, their
   rows and the retention candidates once: a registry price (bind, then
   price) takes 2,324 words, and a price of an already bound scheduler,
   what a sweep point pays, 1,075. Each bound is its figure plus 25%.
   Counted with [Gc.minor_words] on one domain, so exact, not timing
   noise. *)
let price_words_max = 2905.
let bound_price_words_max = 1344.

let price_words ?(bound = false) app =
  let ctx = Sched.Sched_ctx.make app (Workloads.Mpeg.clustering app) in
  let config =
    Morphosys.Config.make ~fb_set_size:2048 ~cm_capacity:1024
      ~dma_setup_cycles:16 ()
  in
  let b = Sched.Scheduler_registry.bind "cds" ctx in
  let price () =
    match
      if bound then b.Sched.Scheduler_intf.price config
      else Sched.Scheduler_registry.price "cds" ctx config
    with
    | Ok _ -> ()
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  price ();
  let before = Gc.minor_words () in
  price ();
  Gc.minor_words () -. before

let test_price_allocation () =
  List.iter
    (fun (name, app) ->
      let short = price_words (Fixtures.with_iterations app 60)
      and long = price_words (Fixtures.with_iterations app 6000) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words at 60 iterations, %.0f at 6000"
           name short long)
        true
        (Float.abs (long -. short) <= 16.))
    [
      ("MPEG", Workloads.Mpeg.app ());
      ("MPEG-inv", Workloads.Mpeg.app_invariant ());
    ];
  List.iter
    (fun (what, bound, max) ->
      let words = price_words ~bound (Workloads.Mpeg.app ()) in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f minor words per MPEG %s <= %.0f" words what max)
        true (words <= max))
    [
      ("price", false, price_words_max);
      ("price of a bound scheduler", true, bound_price_words_max);
    ]

let tests =
  ( "step_builder",
    [
      Alcotest.test_case "even clusters: no stalls" `Quick
        test_even_cluster_count_has_no_stalls;
      Alcotest.test_case "odd clusters: wraparound stalls" `Quick
        test_odd_cluster_count_stalls_at_wraparound;
      Alcotest.test_case "overlap legality" `Quick
        test_overlap_legality_in_all_steps;
      Alcotest.test_case "rf validation" `Quick test_rf_validation;
      Alcotest.test_case "xfer generators" `Quick
        test_xfer_gen_plain_vs_store_everything;
      QCheck_alcotest.to_alcotest prop_cost_estimate_equals_executor;
      Alcotest.test_case "partial context pinning" `Quick
        test_context_partial_pinning;
      Alcotest.test_case "basic build allocation" `Quick
        test_basic_build_allocation;
      Alcotest.test_case "price allocation per cluster" `Quick
        test_price_allocation;
    ] )

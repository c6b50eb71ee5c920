(* Equivalence suite for the indexed analysis context: every structure and
   every scheduler decision computed through [Kernel_ir.Analysis] /
   [Sched.Sched_ctx] must be byte-identical to the reference list-based
   derivation — same profiles, same candidate sets, same split integers,
   same retention decisions (including rejection strings) and same
   schedules. The scaling benchmark's speedup claim rests on this. *)

module IE = Kernel_ir.Info_extractor
module Analysis = Kernel_ir.Analysis
module Application = Kernel_ir.Application
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data

let arb = Workloads.Random_app.arb_app_with_clustering

(* ---------- unit tests: lookups on the figure 5 fixture ---------- *)

let fig5 () =
  let app = Workloads.Synthetic.figure5 () in
  (app, Workloads.Synthetic.figure5_clustering app)

let test_lookups () =
  let app, clustering = fig5 () in
  let a = Analysis.make app clustering in
  Alcotest.(check int)
    "n_clusters"
    (Cluster.n_clusters clustering)
    (Analysis.n_clusters a);
  List.iter
    (fun (c : Cluster.t) ->
      Alcotest.(check bool) "cluster by id" true (Analysis.cluster a c.id = c);
      List.iter
        (fun k ->
          Alcotest.(check int) "cluster_of_kernel"
            (Cluster.cluster_of_kernel clustering k).Cluster.id
            (Analysis.cluster_of_kernel a k).Cluster.id)
        c.kernels)
    clustering;
  List.iter
    (fun (d : Data.t) ->
      Alcotest.(check bool) "data by id" true (Analysis.data a d.id = d))
    app.Application.data

let test_profiles_match_reference () =
  let app, clustering = fig5 () in
  let a = Analysis.make app clustering in
  Alcotest.(check bool)
    "profiles" true
    (Analysis.profiles_list a = IE.profiles app clustering);
  Alcotest.(check bool)
    "sharing" true
    (Analysis.sharing a = IE.sharing app clustering)

(* A hand-built clustering with shifted ids must be rejected loudly, not
   silently resolve to the wrong profile. *)
let test_bad_clustering_backstop () =
  let app, clustering = fig5 () in
  let shifted =
    List.map (fun (c : Cluster.t) -> { c with Cluster.id = c.id + 1 }) clustering
  in
  Alcotest.check_raises "non-consecutive ids"
    (Invalid_argument
       "Analysis.make: cluster ids are not consecutive (id 1 at position 0)")
    (fun () -> ignore (Analysis.make app shifted));
  Alcotest.check_raises "empty clustering"
    (Invalid_argument
       (Printf.sprintf
          "Analysis.make: clusters do not cover the kernel sequence 0..%d in \
           order"
          (Application.n_kernels app - 1)))
    (fun () -> ignore (Analysis.make app []));
  let a = Analysis.make app clustering in
  Alcotest.check_raises "bad cluster id"
    (Invalid_argument
       (Printf.sprintf "Analysis.profile: bad cluster id 99 (have %d clusters)"
          (Cluster.n_clusters clustering)))
    (fun () -> ignore (Analysis.profile a 99))

(* ---------- properties: context structures equal the reference ---------- *)

let prop_structures (app, clustering) =
  let a = Analysis.make app clustering in
  let ok name b = if b then true else QCheck.Test.fail_reportf "%s differ" name in
  ok "profiles" (Analysis.profiles_list a = IE.profiles app clustering)
  && ok "sharing" (Analysis.sharing a = IE.sharing app clustering)
  && ok "tds" (Analysis.tds a = Application.total_data_words app)
  && List.for_all
       (fun (c : Cluster.t) ->
         ok "cluster" (Analysis.cluster a c.id = c)
         && List.for_all
              (fun k ->
                ok "cluster_of_kernel"
                  (Analysis.cluster_of_kernel a k
                  = Cluster.cluster_of_kernel clustering k))
              c.kernels)
       clustering
  && List.for_all
       (fun (d : Data.t) -> ok "data" (Analysis.data a d.id = d))
       app.Application.data

let prop_candidates (app, clustering) =
  let a = Analysis.make app clustering in
  List.for_all
    (fun cross_set ->
      if
        Cds.Sharing.candidates_ctx ~cross_set a
        = Cds.Sharing.candidates ~cross_set app clustering
      then true
      else
        QCheck.Test.fail_reportf "candidates differ (cross_set=%b)" cross_set)
    [ false; true ]

(* The fast split/closed-form must produce the reference integers, for the
   bare profile and under pinned subsets of the cluster inputs. *)
let prop_splits (app, clustering) =
  let a = Analysis.make app clustering in
  List.for_all
    (fun (p : IE.cluster_profile) ->
      let pinned_sets =
        let inputs = p.IE.external_inputs in
        [ []; inputs; List.filteri (fun i _ -> i mod 2 = 0) inputs ]
      in
      List.for_all
        (fun pinned ->
          Sched.Ds_formula.closed_form_fast ~pinned p
          = Sched.Ds_formula.closed_form ~pinned p
          && Sched.Ds_formula.split_fast ~pinned p
             = Sched.Ds_formula.split ~pinned p
          || QCheck.Test.fail_reportf "split mismatch, cluster %d"
               p.IE.cluster.Cluster.id)
        pinned_sets)
    (Analysis.profiles_list a)

(* The incremental retention pass must reproduce the reference decision —
   retained and rejected lists, rejection strings, avoided totals — for
   both set disciplines across memory pressures and reuse factors. *)
let prop_retention (app, clustering) =
  let ctx = Sched.Sched_ctx.make app clustering in
  List.for_all
    (fun fb ->
      let config = Morphosys.Config.m1 ~fb_set_size:fb in
      List.for_all
        (fun cross_set ->
          List.for_all
            (fun rf ->
              let reference =
                Cds.Retention.choose ~cross_set config app clustering ~rf
              in
              let indexed = Cds.Retention.choose_ctx ~cross_set config ctx ~rf in
              if reference = indexed then true
              else
                QCheck.Test.fail_reportf
                  "retention differs (fb=%d cross_set=%b rf=%d):@.ref %a@.got \
                   %a"
                  fb cross_set rf Cds.Retention.pp_decision reference
                  Cds.Retention.pp_decision indexed)
            [ 1; 2; 3 ])
        [ false; true ])
    [ 1024; 4096 ]

(* End-to-end: every registered scheduler, dispatched by name, must return
   the very schedule (or the very error string) of its reference path. *)
let prop_schedulers (app, clustering) =
  let config = Morphosys.Config.m1 ~fb_set_size:4096 in
  let ctx = Sched.Sched_ctx.make app clustering in
  let reference = function
    | "basic" -> Sched.Basic_scheduler.schedule_reference config app clustering
    | "ds" -> Sched.Data_scheduler.schedule_reference config app clustering
    | name ->
      Result.map
        (fun r -> r.Cds.Complete_data_scheduler.schedule)
        (Cds.Complete_data_scheduler.schedule_reference
           ~cross_set:(name = "cds-xset") config app clustering)
  in
  List.for_all
    (fun name ->
      match
        ( Result.map_error Diag.to_string
            (Sched.Scheduler_registry.run name ctx config),
          reference name )
      with
      | Ok a, Ok b ->
        a = b || QCheck.Test.fail_reportf "%s: schedule differs" name
      | Error a, Error b ->
        a = b
        || QCheck.Test.fail_reportf "%s: errors differ: %S vs %S" name a b
      | Ok _, Error e ->
        QCheck.Test.fail_reportf "%s: registry Ok but reference Error %S"
          name e
      | Error e, Ok _ ->
        QCheck.Test.fail_reportf "%s: registry Error %S but reference Ok"
          name e)
    [ "basic"; "ds"; "cds"; "cds-xset" ]

(* The estimate used by the RF searches, and by [price], must equal what
   the simulator measures of the materialised schedule — its cycles and
   both word counts — for both traffic shapes and several factors: RF 1-3
   with free DMA setup, and RF 1-6 with a 16-cycle setup, which makes
   every transfer's count matter as well as its words. *)
let prop_estimate (app, clustering) =
  let a = Analysis.make app clustering in
  let shapes =
    [
      ("plain", Sched.Xfer_gen.plain_selectors_ctx a);
      ("store_everything", Sched.Xfer_gen.store_everything_selectors_ctx a);
    ]
  in
  List.for_all
    (fun (config, rfs) ->
      match Sched.Context_scheduler.plan_app config app clustering with
      | Error _ -> true
      | Ok ctx_plan ->
        List.for_all
          (fun rf ->
            List.for_all
              (fun (name, selectors) ->
                let e =
                  Sched.Step_builder.estimate config app clustering ~rf
                    ~ctx_plan ~selectors
                in
                let built =
                  Msim.Executor.cost config
                    (Sched.Step_builder.build config app clustering ~rf
                       ~ctx_plan ~generators:selectors ~scheduler:"test")
                in
                if e = built then true
                else
                  QCheck.Test.fail_reportf
                    "estimate %s rf=%d setup=%d: cycles/data/ctx %d/%d/%d <> \
                     built %d/%d/%d"
                    name rf config.Morphosys.Config.dma_setup_cycles e.cycles
                    e.data_words e.context_words built.cycles built.data_words
                    built.context_words)
              shapes)
          rfs)
    [
      (Morphosys.Config.m1 ~fb_set_size:4096, [ 1; 2; 3 ]);
      ( Morphosys.Config.make ~fb_set_size:4096 ~dma_setup_cycles:16 (),
        [ 1; 2; 3; 4; 5; 6 ] );
    ]

(* Random apps draw an invariant table only now and then; the MPEG decoder
   with its constant tables exercises the one-instance-per-round branch of
   the transfer expansion and of the estimate every time. *)
let test_estimate_invariant_tables () =
  let app = Workloads.Mpeg.app_invariant () in
  Alcotest.(check bool) "has invariant inputs" true
    (List.exists
       (fun (d : Kernel_ir.Data.t) -> d.Kernel_ir.Data.invariant)
       app.Kernel_ir.Application.data);
  Alcotest.(check bool) "estimate = built cost" true
    (prop_estimate (app, Workloads.Mpeg.clustering app))

let tests =
  ( "analysis_ctx",
    [
      Alcotest.test_case "figure 5 lookups" `Quick test_lookups;
      Alcotest.test_case "figure 5 profiles = reference" `Quick
        test_profiles_match_reference;
      Alcotest.test_case "bad clustering backstop" `Quick
        test_bad_clustering_backstop;
      Alcotest.test_case "rf estimate = built (invariant tables)" `Quick
        test_estimate_invariant_tables;
    ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [
          QCheck.Test.make ~count:200 ~name:"context structures = reference"
            arb prop_structures;
          QCheck.Test.make ~count:200 ~name:"sharing candidates = reference"
            arb prop_candidates;
          QCheck.Test.make ~count:200 ~name:"fast splits = reference formula"
            arb prop_splits;
          QCheck.Test.make ~count:200
            ~name:"incremental retention = reference decision" arb
            prop_retention;
          QCheck.Test.make ~count:200
            ~name:"indexed schedules = reference schedules" arb prop_schedulers;
          QCheck.Test.make ~count:200 ~name:"rf estimate = built schedule cost"
            arb prop_estimate;
        ] )

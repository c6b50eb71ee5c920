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
    clustering

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

(* A cluster's split with [pinned] through its context sweep, by the pin
   arithmetic a retention walk applies: strip each pin from a copy of the
   d-suffix, sum the pinned words, take the peak. *)
let sweep_split (s : Sched.Ds_formula.sweep) pinned =
  let d_suffix = Array.copy s.d_suffix in
  let regular, constant =
    List.fold_left
      (fun (regular, constant) d ->
        let pin = Sched.Ds_formula.pin s d in
        for i = 0 to pin.strip_pos do
          d_suffix.(i) <- d_suffix.(i) - pin.strip
        done;
        (regular + pin.regular_add, constant + pin.constant_add))
      (0, s.constant) pinned
  in
  (Sched.Ds_formula.peak s d_suffix Sched.Ds_formula.no_pin + regular, constant)

(* The context's sweeps must produce the reference integers: the bare
   footprint and split, and the split under pinned subsets of the cluster
   inputs. *)
let prop_splits (app, clustering) =
  let ctx = Sched.Sched_ctx.make app clustering in
  let profiles = Analysis.profiles_list (Sched.Sched_ctx.analysis ctx) in
  List.for_all2
    (fun (p : IE.cluster_profile) (s : Sched.Ds_formula.sweep) ->
      let pinned_sets =
        let inputs = p.IE.external_inputs in
        [ []; inputs; List.filteri (fun i _ -> i mod 2 = 0) inputs ]
      in
      let mismatch what =
        QCheck.Test.fail_reportf "%s mismatch, cluster %d" what
          p.IE.cluster.Cluster.id
      in
      (s.footprint = Sched.Ds_formula.closed_form p || mismatch "footprint")
      && ((s.per_iteration, s.constant) = Sched.Ds_formula.split p
         || mismatch "split")
      && List.for_all
           (fun pinned ->
             sweep_split s pinned = Sched.Ds_formula.split ~pinned p
             || mismatch "pinned split")
           pinned_sets)
    profiles
    (Array.to_list ctx.Sched.Sched_ctx.sweeps)

(* The incremental retention pass must reproduce the reference decision —
   retained and rejected lists, rejection strings, avoided totals — for
   both set disciplines across memory pressures and reuse factors. One
   prepared value per context and mode answers every query: RFs out of
   order, each at both FB sizes, so a walk that left state behind in the
   prepared value would show in a later query. Returns the first
   disagreement, if any. *)
let retention_mismatch ~rfs (app, clustering) =
  let ctx = Sched.Sched_ctx.make app clustering in
  List.find_map
    (fun cross_set ->
      let prepared = Cds.Retention.prepare ~cross_set ctx in
      List.find_map
        (fun rf ->
          List.find_map
            (fun fb ->
              let config = Morphosys.Config.m1 ~fb_set_size:fb in
              let reference =
                Cds.Retention.choose ~cross_set config app clustering ~rf
              in
              let staged =
                Cds.Retention.decision prepared
                  (Cds.Retention.walk prepared config ~rf)
              in
              if reference = staged then None
              else
                Some
                  (Format.asprintf
                     "retention differs (fb=%d cross_set=%b rf=%d):@.ref \
                      %a@.got %a"
                     fb cross_set rf Cds.Retention.pp_decision reference
                     Cds.Retention.pp_decision staged))
            [ 1024; 4096 ])
        rfs)
    [ false; true ]

let prop_retention app =
  match retention_mismatch ~rfs:[ 3; 1; 2 ] app with
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

(* MPEG-inv's invariant tables avoid words in proportion to the round
   count, so its walk order changes with RF; MPEG's does not. *)
let test_retention_mpeg () =
  List.iter
    (fun app ->
      Alcotest.(check (option string))
        app.Application.name None
        (retention_mismatch ~rfs:[ 3; 1; 2; 8; 5; 60 ]
           (app, Workloads.Mpeg.clustering app)))
    [ Workloads.Mpeg.app (); Workloads.Mpeg.app_invariant () ]

(* The two properties above at the claimed size: a 400-kernel app in
   pairs, its sweeps against the reference formula and its prepared
   retention against the reference decision in both set modes. *)
let test_large_app () =
  let app = Workloads.Random_app.large ~kernels:400 ~data:800 ~seed:1 in
  let clustering = Workloads.Random_app.pairs_clustering app in
  let ctx = Sched.Sched_ctx.make app clustering in
  Array.iteri
    (fun id (s : Sched.Ds_formula.sweep) ->
      let p = Analysis.profile (Sched.Sched_ctx.analysis ctx) id in
      let what = Printf.sprintf "cluster %d" id in
      Alcotest.(check (pair int int))
        (what ^ " split") (Sched.Ds_formula.split p)
        (s.per_iteration, s.constant);
      Alcotest.(check int)
        (what ^ " footprint") (Sched.Ds_formula.closed_form p) s.footprint)
    ctx.Sched.Sched_ctx.sweeps;
  Alcotest.(check (option string)) "retention" None
    (retention_mismatch ~rfs:[ 3; 1; 2 ] (app, clustering))

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
   both word counts — for both traffic shapes at every given factor, on
   two machines: M1 (free DMA setup, a 2048-word CM), and a 16-cycle
   setup, which makes every transfer's count matter as well as its words,
   with a CM just big enough for the largest cluster, so the other
   clusters reload their contexts every round after the first. *)
let check_estimate ~rfs (app, clustering) =
  let a = Analysis.make app clustering in
  let shapes =
    [
      ("plain", Sched.Xfer_gen.plain_selectors_ctx a);
      ("store_everything", Sched.Xfer_gen.store_everything_selectors_ctx a);
    ]
  in
  let tight_cm =
    List.fold_left
      (fun m c -> max m (Sched.Context_scheduler.context_words app c))
      1 clustering
  in
  List.for_all
    (fun config ->
      match Sched.Context_scheduler.plan_app config app clustering with
      | Error d -> QCheck.Test.fail_reportf "plan: %s" (Diag.to_string d)
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
                    "estimate %s n=%d clusters=%d rf=%d setup=%d cm=%d: \
                     cycles/data/ctx %d/%d/%d <> built %d/%d/%d"
                    name app.Application.iterations
                    (Cluster.n_clusters clustering)
                    rf config.Morphosys.Config.dma_setup_cycles
                    config.cm_capacity e.cycles e.data_words e.context_words
                    built.cycles built.data_words built.context_words)
              shapes)
          rfs)
    [
      Morphosys.Config.m1 ~fb_set_size:4096;
      Morphosys.Config.make ~fb_set_size:4096 ~dma_setup_cycles:16
        ~cm_capacity:tight_cm ();
    ]

(* Every RF in 1..N: the estimate walks at most four rounds and counts
   the others, so the draws cover partial last rounds and more than four
   rounds at small factors. *)
let prop_estimate (app, clustering) =
  check_estimate
    ~rfs:(List.init app.Application.iterations succ)
    (app, clustering)

(* A random app with its iteration count redrawn in 1..40, clustered
   three ways: the drawn partition, one cluster, or an odd number of
   clusters (the drawn one with its last two clusters merged when it has
   an even number), where every round wrap has a set-conflict stall. *)
let arb_estimate =
  let open QCheck.Gen in
  let gen =
    let* app, clustering = Workloads.Random_app.gen_app_with_clustering in
    let* iterations = int_range 1 40 in
    let* shape = int_range 0 2 in
    let app = Fixtures.with_iterations app iterations in
    let sizes = Cluster.partition_sizes clustering in
    let odd =
      if List.length sizes mod 2 = 1 then sizes
      else
        match List.rev sizes with
        | a :: b :: rest -> List.rev ((a + b) :: rest)
        | short -> short
    in
    let sizes =
      match shape with
      | 0 -> sizes
      | 1 -> [ Application.n_kernels app ]
      | _ -> odd
    in
    pure (app, Cluster.of_partition app sizes)
  in
  QCheck.make
    ~print:(fun (app, clustering) ->
      Format.asprintf "%a@\n%a" Application.pp app Cluster.pp_clustering
        clustering)
    gen

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

(* MPEG and MPEG-inv at their 60 iterations and at 6,000, RF 1-8: from
   eight rounds to 6,000, so the counted steady rounds dominate. *)
let test_estimate_long_runs () =
  List.iter
    (fun app ->
      List.iter
        (fun iterations ->
          let app = Fixtures.with_iterations app iterations in
          Alcotest.(check bool)
            (Printf.sprintf "%s at %d iterations" app.Application.name
               iterations)
            true
            (check_estimate ~rfs:(List.init 8 succ)
               (app, Workloads.Mpeg.clustering app)))
        [ 60; 6000 ])
    [ Workloads.Mpeg.app (); Workloads.Mpeg.app_invariant () ]

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
      Alcotest.test_case "rf estimate = built (MPEG, 60 and 6000 iterations)"
        `Quick test_estimate_long_runs;
      Alcotest.test_case "prepared retention = reference (MPEG, MPEG-inv)"
        `Quick test_retention_mpeg;
      Alcotest.test_case "sweeps and retention = reference (400 kernels)"
        `Slow test_large_app;
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
            arb_estimate prop_estimate;
        ] )

(* The scheduler registry: deterministic listing, lookup, duplicate
   rejection, the unknown-name diagnostic, and [price] agreeing with the
   simulated [run] at an RF inside the paper model's bound. That
   dispatching a scheduler by name reproduces its reference schedules is a
   property in [Test_analysis]. *)

module Registry = Sched.Scheduler_registry
module Intf = Sched.Scheduler_intf

let contains = Astring_contains.contains

(* ---------- unit tests ---------- *)

let test_names_deterministic () =
  let names = Registry.names () in
  Alcotest.(check (list string))
    "sorted, duplicate-free listing" (List.sort_uniq compare names) names;
  Alcotest.(check (list string))
    "stable across calls" names (Registry.names ());
  Alcotest.(check (list string))
    "all () agrees with names ()" names
    (List.map (fun (s : Intf.t) -> s.name) (Registry.all ()));
  (* the three paper tiers plus the cross-set variant are registered *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " registered") true
        (List.mem n (Registry.names ())))
    [ "basic"; "ds"; "cds"; "cds-xset" ]

let test_find () =
  (match Registry.find "ds" with
  | Some s -> Alcotest.(check string) "find returns ds" "ds" s.Intf.name
  | None -> Alcotest.fail "ds must be registered");
  Alcotest.(check bool) "unknown name" true (Registry.find "no-such" = None)

let test_duplicate_rejected () =
  let impostor =
    {
      Sched.Step_builder.name = "cds";
      cross_set = false;
      stage = (fun _ -> assert false);
    }
  in
  (match
     Registry.register ~describe:"an impostor under an already-taken name"
       impostor
   with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the duplicate" true
      (contains msg "cds")
  | () -> Alcotest.fail "duplicate registration must be rejected");
  (* the original registration is untouched *)
  match Registry.find "cds" with
  | Some s ->
    Alcotest.(check bool) "original describe survives" false
      (s.Intf.describe = "an impostor under an already-taken name")
  | None -> Alcotest.fail "cds must still be registered"

let test_unknown_run_diagnoses () =
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:2048 in
  match
    Registry.run "no-such" (Sched.Sched_ctx.make app clustering) config
  with
  | Ok _ -> Alcotest.fail "unknown scheduler cannot deliver a schedule"
  | Error d ->
    Alcotest.(check bool) "Invalid_config diagnostic" true
      (d.Diag.code = Diag.Invalid_config);
    Alcotest.(check bool) "message lists the known names" true
      (contains d.Diag.message "basic");
    Alcotest.(check bool) "price gives run's diagnostic" true
      (Registry.price "no-such" (Sched.Sched_ctx.make app clustering) config
      = Error d)

(* ---------- price = run, simulated ---------- *)

(* Each scheduler's RF bound, from the paper's models rather than from
   the policies: Basic runs at RF = 1; DS packs 85% of the FB set; CDS
   (and its cross-set variant) the whole set. *)
let rf_bound name app clustering (config : Morphosys.Config.t) =
  let common fb_set_size =
    Sched.Reuse_factor.common_split ~fb_set_size
      ~footprints:(Sched.Data_scheduler.footprints_split app clustering)
      ~iterations:app.Kernel_ir.Application.iterations
  in
  match name with
  | "basic" -> 1
  | "ds" -> common (int_of_float (0.85 *. float_of_int config.fb_set_size))
  | "cds" | "cds-xset" -> common config.fb_set_size
  | _ -> Alcotest.failf "no RF bound known for scheduler %S" name

(* For every registered scheduler: [price] returns [run]'s RF, which lies
   in [1..rf_bound], and exactly what the simulator measures of [run]'s
   schedule, and on an infeasible point [run]'s diagnostic. The first
   disagreement, if any. [on_run] sees each feasible [run]'s schedule. *)
let price_mismatch ?(on_run = fun _ _ -> ()) app clustering config =
  let ctx = Sched.Sched_ctx.make app clustering in
  List.find_map
    (fun (s : Intf.t) ->
      let name = s.Intf.name in
      let failed what =
        Some
          (Printf.sprintf "%s (fb=%d cm=%d setup=%d): %s" name
             config.Morphosys.Config.fb_set_size config.cm_capacity
             config.dma_setup_cycles what)
      in
      match (Registry.run name ctx config, Registry.price name ctx config) with
      | Error d, Error d' ->
        if d = d' then None
        else
          failed
            (Printf.sprintf "diagnostics differ: %s vs %s" (Diag.render d)
               (Diag.render d'))
      | Ok _, Error d -> failed ("priced infeasible: " ^ Diag.render d)
      | Error _, Ok _ -> failed "priced an infeasible point"
      | Ok sched, Ok (rf, (c : Sched.Step_builder.cost)) ->
        on_run name sched;
        let s = Msim.Executor.cost config sched in
        let rf' = sched.Sched.Schedule.rf in
        let bound = rf_bound name app clustering config in
        if rf' < 1 || rf' > bound then
          failed (Printf.sprintf "run's rf %d outside 1..%d" rf' bound)
        else if (rf, c) = (rf', s) then None
        else
          failed
            (Printf.sprintf
               "priced rf/cycles/data/ctx %d/%d/%d/%d, run %d/%d/%d/%d" rf
               c.cycles c.data_words c.context_words rf' s.cycles s.data_words
               s.context_words))
    (Registry.all ())

let on_two_machines mismatch (app, clustering) =
  List.for_all
    (fun config ->
      match mismatch app clustering config with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)
    [
      Morphosys.Config.m1 ~fb_set_size:1024;
      Morphosys.Config.make ~fb_set_size:4096 ~dma_setup_cycles:16 ();
    ]

(* The 72-point MPEG grid of the DSE benchmark. *)
let fb_list = [ 512; 1024; 1536; 2048; 3072; 4096 ]
let cm_list = [ 1024; 2048 ]
let setup_list = [ 0; 16 ]

(* On MPEG-inv a retained invariant table leaves the later-round loads but
   not the first-round ones, so its rows differ between the two. *)
let on_mpeg_grid what mismatch app () =
  let clustering = Workloads.Mpeg.clustering app in
  List.iter
    (fun fb_set_size ->
      List.iter
        (fun cm_capacity ->
          List.iter
            (fun dma_setup_cycles ->
              Alcotest.(check (option string))
                what None
                (mismatch app clustering
                   (Morphosys.Config.make ~fb_set_size ~cm_capacity
                      ~dma_setup_cycles ())))
            setup_list)
        cm_list)
    fb_list

(* The sweep binds each scheduler once and prices every point of the grid
   with that one value, on two domains; each point must be what a
   scheduler bound afresh for that point alone prices. *)
let test_sweep_bound_equals_fresh () =
  List.iter
    (fun app ->
      let clustering = Workloads.Mpeg.clustering app in
      List.iter
        (fun (p : Report.Dse.point) ->
          let config =
            Morphosys.Config.make ~fb_set_size:p.fb_set_size
              ~cm_capacity:p.cm_capacity ~dma_setup_cycles:p.dma_setup_cycles
              ()
          in
          let fresh =
            match
              Registry.price p.scheduler
                (Sched.Sched_ctx.make app clustering)
                config
            with
            | Ok (rf, (c : Sched.Step_builder.cost)) ->
              [
                Some rf; Some c.cycles; Some c.data_words; Some c.context_words;
              ]
            | Error _ -> [ None; None; None; None ]
          in
          Alcotest.(check (list (option int)))
            (Printf.sprintf "%s %s fb=%d cm=%d setup=%d"
               app.Kernel_ir.Application.name p.scheduler p.fb_set_size
               p.cm_capacity p.dma_setup_cycles)
            fresh
            [ p.rf; p.total_cycles; p.data_words; p.context_words ])
        (Report.Dse.sweep ~jobs:2 ~cm_list ~setup_list ~fb_list app clustering))
    [ Workloads.Mpeg.app (); Workloads.Mpeg.app_invariant () ]

(* At 200 kernels (a 1,000-object random app, kernels paired), on both
   machines: price = simulated run, every scheduler feasible with a
   validator-clean schedule, and CDS <= DS <= Basic in simulated cycles. *)
let test_large_app () =
  List.iter
    (fun (seed, (config : Morphosys.Config.t)) ->
      let app = Workloads.Random_app.large ~kernels:200 ~data:400 ~seed in
      let clustering = Workloads.Random_app.pairs_clustering app in
      let where = Printf.sprintf "seed %d, fb=%d" seed config.fb_set_size in
      let cycles = ref [] in
      let on_run name sched =
        (match Msim.Validate.check_result sched with
        | Ok () -> ()
        | Error d ->
          Alcotest.failf "%s: %s schedule invalid: %s" where name
            (Diag.render d));
        cycles := (name, (Msim.Executor.cost config sched).cycles) :: !cycles
      in
      Alcotest.(check (option string))
        (where ^ ": price = simulated run")
        None
        (price_mismatch ~on_run app clustering config);
      Alcotest.(check (list string))
        (where ^ ": every scheduler feasible")
        (Registry.names ())
        (List.sort compare (List.map fst !cycles));
      let c name = List.assoc name !cycles in
      Alcotest.(check bool)
        (Printf.sprintf "%s: cds %d <= ds %d <= basic %d" where (c "cds")
           (c "ds") (c "basic"))
        true
        (c "cds" <= c "ds" && c "ds" <= c "basic"))
    [
      (1, Morphosys.Config.m1 ~fb_set_size:1024);
      (2, Morphosys.Config.make ~fb_set_size:4096 ~dma_setup_cycles:16 ());
    ]

let tests =
  ( "scheduler_registry",
    [
      Alcotest.test_case "names deterministic and sorted" `Quick
        test_names_deterministic;
      Alcotest.test_case "find" `Quick test_find;
      Alcotest.test_case "duplicate registration rejected" `Quick
        test_duplicate_rejected;
      Alcotest.test_case "unknown name diagnosed" `Quick
        test_unknown_run_diagnoses;
      Alcotest.test_case "price = simulated run on the MPEG grid" `Quick
        (on_mpeg_grid "price = simulated run" price_mismatch
           (Workloads.Mpeg.app ()));
      Alcotest.test_case "price = simulated run on the MPEG-inv grid" `Quick
        (on_mpeg_grid "price = simulated run" price_mismatch
           (Workloads.Mpeg.app_invariant ()));
      Alcotest.test_case "sweep's bound price = fresh price" `Quick
        test_sweep_bound_equals_fresh;
      QCheck_alcotest.to_alcotest ~long:false
        (QCheck.Test.make ~count:100
           ~name:"price = simulated run on random apps"
           Workloads.Random_app.arb_app_with_clustering
           (on_two_machines price_mismatch));
      Alcotest.test_case "registry properties on a 200-kernel app" `Slow
        test_large_app;
    ] )

(* Graceful degradation (CDS -> DS -> Basic), hostile fuzzing, and
   fault-isolated DSE sweeps. *)

module Pipeline = Cds.Pipeline

let contains = Astring_contains.contains

(* A frame buffer sized to the largest Basic footprint: Basic is feasible
   by construction, while the DS/CDS tiers — whose packable budgets differ
   — frequently are not, which is exactly the ladder we want to exercise. *)
let squeezed_config app clustering =
  let fb_set_size =
    Msutil.Listx.max_by
      (fun x -> x)
      (Sched.Basic_scheduler.footprints app clustering)
  in
  let cm_capacity = max 2048 (Kernel_ir.Application.total_context_words app) in
  Morphosys.Config.make ~fb_set_size ~cm_capacity ()

let prop_degrade_always_delivers (app, clustering) =
  let config = squeezed_config app clustering in
  let c = Pipeline.run ~degrade:true config app clustering in
  let d =
    match c.Pipeline.degradation with
    | Some d -> d
    | None -> QCheck.Test.fail_report "degrade:true must record a chain"
  in
  (* Basic is feasible by construction, so some tier always delivers. *)
  (match Pipeline.degraded_schedule c with
  | Some (_tier, _s) -> ()
  | None ->
    QCheck.Test.fail_reportf "no tier delivered; chain: %s"
      (String.concat "; "
         (List.map
            (fun (t, diag) -> t ^ ": " ^ Diag.render diag)
            d.Pipeline.chain)));
  (* the chain walks CDS -> DS -> Basic in order *)
  let tiers = List.map fst d.Pipeline.chain in
  (match tiers with
  | [] | [ "cds" ] | [ "cds"; "ds" ] -> ()
  | _ -> QCheck.Test.fail_report "chain is not a cds,ds prefix");
  (* the recorded reason is the CDS diagnostic the string API reports *)
  (match (List.assoc_opt "cds" d.Pipeline.chain, c.Pipeline.cds) with
  | Some diag, Error msg ->
    if Diag.to_string diag <> msg then
      QCheck.Test.fail_reportf "chain diag %S <> cds error %S"
        (Diag.to_string diag) msg
  | None, Ok _ -> ()
  | Some _, Ok _ ->
    QCheck.Test.fail_report "CDS in the chain but the cds field is Ok"
  | None, Error _ ->
    QCheck.Test.fail_report "cds failed but is missing from the chain");
  (* ~degrade only adds the degradation record: whenever validation passes
     (a default run raises otherwise), the tier fields equal a default
     run's *)
  (match Pipeline.run config app clustering with
  | exception Failure _ -> ()
  | plain ->
    let differs field =
      QCheck.Test.fail_reportf "%s differs under ~degrade" field
    in
    if plain.Pipeline.basic <> c.Pipeline.basic then differs "basic";
    if plain.Pipeline.ds <> c.Pipeline.ds then differs "ds";
    if plain.Pipeline.cds <> c.Pipeline.cds then differs "cds");
  (* every recorded failure is an error-severity structured diagnostic *)
  List.for_all (fun (_, diag) -> Diag.is_error diag) d.Pipeline.chain

let degrade_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"degrade always delivers a schedule"
       Workloads.Random_app.arb_app_with_clustering
       prop_degrade_always_delivers)

let test_degrade_off_is_none () =
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:8192 in
  let c = Pipeline.run config app clustering in
  Alcotest.(check bool) "no degradation record without ~degrade" true
    (c.Pipeline.degradation = None);
  Alcotest.(check bool) "degraded_schedule is None" true
    (Pipeline.degraded_schedule c = None)

let test_degrade_infeasible_everywhere () =
  (* FB of 1 word: every tier fails, the chain names all three, and the
     pipeline still does not raise *)
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:1 in
  let c = Pipeline.run ~degrade:true config app clustering in
  match c.Pipeline.degradation with
  | None -> Alcotest.fail "expected a degradation record"
  | Some d ->
    Alcotest.(check bool) "nothing delivered" true (d.Pipeline.delivered = None);
    Alcotest.(check (list string)) "all three tiers failed"
      [ "cds"; "ds"; "basic" ]
      (List.map fst d.Pipeline.chain);
    let rendered = Format.asprintf "%a" Pipeline.pp_degradation d in
    Alcotest.(check bool) "pp mentions infeasibility" true
      (contains rendered "no scheduler tier is feasible")

let test_hostile_smoke () =
  let r = Report.Fuzz.run_hostile ~jobs:2 ~seed:42 ~count:40 () in
  Alcotest.(check bool)
    (Format.asprintf "no uncaught exceptions: %a" Report.Fuzz.pp_hostile r)
    true (Report.Fuzz.hostile_ok r);
  Alcotest.(check int) "every mutant accounted for" 40
    (r.Report.Fuzz.rejected + r.Report.Fuzz.survived
   + r.Report.Fuzz.h_faulted);
  Alcotest.(check bool) "mutations actually rejected" true
    (r.Report.Fuzz.rejected > 0)

let test_sweep_survives_crashing_point () =
  (* a pool fault at rate 1.0 kills every design-point task on first
     attempt; without retries the sweep must still return every point,
     each infeasible with a structured diagnostic *)
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let fb_list = [ 1024; 8192 ] in
  Engine.Faults.with_plan
    (Engine.Faults.plan ~sites:[ "pool" ] ~rate:1.0 ~seed:9 ())
    (fun () ->
      let points = Report.Dse.sweep ~jobs:2 ~fb_list app clustering in
      Alcotest.(check int) "all points returned" 6 (List.length points);
      List.iter
        (fun (p : Report.Dse.point) ->
          Alcotest.(check bool) "isolated as infeasible" false
            p.Report.Dse.feasible;
          match p.Report.Dse.diag with
          | Some d ->
            Alcotest.(check bool) "diagnosed as injected" true
              (d.Diag.code = Diag.Fault_injected)
          | None -> Alcotest.fail "crashed point must carry a diagnostic")
        points);
  (* with retries the same plan is absorbed and the sweep is clean *)
  Engine.Faults.with_plan
    (Engine.Faults.plan ~sites:[ "pool" ] ~rate:0.5 ~seed:9 ())
    (fun () ->
      let points =
        Report.Dse.sweep ~jobs:2 ~retries:40 ~fb_list app clustering
      in
      List.iter
        (fun (p : Report.Dse.point) ->
          match p.Report.Dse.diag with
          | Some { Diag.code = Diag.Fault_injected; _ } ->
            Alcotest.fail "retries should have absorbed the injected faults"
          | _ -> ())
        points);
  (* and an undisturbed sweep matches a faulted-but-retried sweep *)
  let clean = Report.Dse.sweep ~fb_list app clustering in
  Alcotest.(check string) "csv identical to clean sweep"
    (Report.Dse.to_csv clean)
    (Engine.Faults.with_plan
       (Engine.Faults.plan ~sites:[ "pool" ] ~rate:0.5 ~seed:9 ())
       (fun () ->
         Report.Dse.to_csv
           (Report.Dse.sweep ~jobs:2 ~retries:40 ~fb_list app clustering)))

let tests =
  ( "degrade",
    [
      degrade_property;
      Alcotest.test_case "no record without ~degrade" `Quick
        test_degrade_off_is_none;
      Alcotest.test_case "all tiers infeasible" `Quick
        test_degrade_infeasible_everywhere;
      Alcotest.test_case "hostile fuzz smoke" `Quick test_hostile_smoke;
      Alcotest.test_case "sweep survives crashing points" `Quick
        test_sweep_survives_crashing_point;
    ] )

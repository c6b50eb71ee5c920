(* The scheduler registry: deterministic listing, lookup, duplicate
   rejection, the unknown-name diagnostic, and [rebuild] at [run]'s RF
   reproducing [run]'s schedule. That dispatching a scheduler by name
   reproduces its reference schedules is a property in [Test_analysis]. *)

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
      rf_bound = (fun _ _ -> assert false);
      selectors = (fun _ _ ~rf:_ -> assert false);
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
      (contains d.Diag.message "basic")

(* ---------- rebuild at a stored RF ---------- *)

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

(* For every registered scheduler: [rebuild] at [run]'s RF is [run]'s
   schedule; RF 0 and bound + 1 are diagnostics; an infeasible [run] has
   no schedule to rebuild. The first disagreement, if any. *)
let rebuild_mismatch app clustering config =
  let ctx = Sched.Sched_ctx.make app clustering in
  List.find_map
    (fun (s : Intf.t) ->
      let name = s.Intf.name in
      let rebuild rf = Registry.rebuild name ctx config ~rf in
      let is_error rf = Result.is_error (rebuild rf) in
      let failed what =
        Some
          (Printf.sprintf "%s (fb=%d cm=%d setup=%d): %s" name
             config.Morphosys.Config.fb_set_size config.cm_capacity
             config.dma_setup_cycles what)
      in
      match Registry.run name ctx config with
      | Error _ ->
        if is_error 1 then None else failed "rebuilt an infeasible point"
      | Ok sched ->
        let rf = sched.Sched.Schedule.rf in
        let bound = rf_bound name app clustering config in
        if rf < 1 || rf > bound then
          failed (Printf.sprintf "run's rf %d outside 1..%d" rf bound)
        else if rebuild rf <> Ok sched then
          failed (Printf.sprintf "rebuild at rf %d differs" rf)
        else if Result.is_error (rebuild bound) then
          failed (Printf.sprintf "rf %d is in bound" bound)
        else if not (is_error 0) then failed "rf 0 rebuilt"
        else if not (is_error (bound + 1)) then
          failed (Printf.sprintf "rf %d rebuilt" (bound + 1))
        else None)
    (Registry.all ())

let prop_rebuild (app, clustering) =
  List.for_all
    (fun config ->
      match rebuild_mismatch app clustering config with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)
    [
      Morphosys.Config.m1 ~fb_set_size:1024;
      Morphosys.Config.make ~fb_set_size:4096 ~dma_setup_cycles:16 ();
    ]

(* The 72-point MPEG grid of the DSE benchmark. *)
let test_rebuild_mpeg_grid () =
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  List.iter
    (fun fb_set_size ->
      List.iter
        (fun cm_capacity ->
          List.iter
            (fun dma_setup_cycles ->
              Alcotest.(check (option string))
                "rebuild = run" None
                (rebuild_mismatch app clustering
                   (Morphosys.Config.make ~fb_set_size ~cm_capacity
                      ~dma_setup_cycles ())))
            [ 0; 16 ])
        [ 1024; 2048 ])
    [ 512; 1024; 1536; 2048; 3072; 4096 ]

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
      Alcotest.test_case "rebuild = run on the MPEG grid" `Quick
        test_rebuild_mpeg_grid;
      QCheck_alcotest.to_alcotest ~long:false
        (QCheck.Test.make ~count:100 ~name:"rebuild = run on random apps"
           Workloads.Random_app.arb_app_with_clustering prop_rebuild);
    ] )

(* The scheduler registry: deterministic listing, lookup, duplicate
   rejection and the unknown-name diagnostic. That dispatching a scheduler
   by name reproduces its reference schedules is a property in
   [Test_analysis]. *)

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
      Intf.name = "cds";
      describe = "an impostor under an already-taken name";
      run = (fun _ _ -> assert false);
    }
  in
  (match Registry.register impostor with
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
    ] )

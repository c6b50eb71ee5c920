(* VCD export: structure, parse-back, and consistency with the executor's
   timeline. *)

module Vcd = Msim.Vcd

let config = Fixtures.default_config

let schedule () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_structure () =
  let text = Vcd.of_schedule config (schedule ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Astring_contains.contains text needle))
    [
      "$timescale"; "$enddefinitions"; "rc_busy"; "dma_busy"; "cluster";
      "dma_words"; "$dumpvars";
    ]

let test_parse_back () =
  let text = Vcd.of_schedule config (schedule ()) in
  match Vcd_parse.parse text with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    Alcotest.(check string) "timescale" "1 ns" parsed.Vcd_parse.timescale;
    Alcotest.(check int) "five signals" 5
      (List.length parsed.Vcd_parse.signals);
    Alcotest.(check bool) "signals named" true
      (List.exists (fun (_, n) -> n = "rc_busy") parsed.Vcd_parse.signals);
    (* change times are monotone *)
    let times = List.map (fun c -> c.Vcd_parse.time) parsed.Vcd_parse.changes in
    let rec monotone = function
      | a :: (b :: _ as rest) -> a <= b && monotone rest
      | _ -> true
    in
    Alcotest.(check bool) "monotone times" true (monotone times)

let test_consistent_with_executor () =
  let s = schedule () in
  let metrics, timeline = Msim.Executor.run_timed config s in
  let text = Vcd.of_schedule config s in
  match Vcd_parse.parse text with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    let rc_changes =
      List.filter (fun c -> c.Vcd_parse.id = "!") parsed.Vcd_parse.changes
    in
    (* rc_busy rises once per compute step (plus the initial dump) *)
    let rises =
      List.filter (fun c -> c.Vcd_parse.value = "1") rc_changes
    in
    let compute_steps =
      List.length
        (List.filter
           (fun (t : Msim.Executor.timed_step) ->
             t.Msim.Executor.step.Sched.Schedule.compute <> None)
           timeline)
    in
    Alcotest.(check int) "one rise per compute step" compute_steps
      (List.length rises);
    (* the last change never exceeds the total cycle count *)
    let last_time =
      Msutil.Listx.max_by (fun c -> c.Vcd_parse.time) parsed.Vcd_parse.changes
    in
    Alcotest.(check bool) "within total" true
      (last_time <= metrics.Msim.Metrics.total_cycles)

let test_binary_widths () =
  let text = Vcd.of_schedule config (schedule ()) in
  match Vcd_parse.parse text with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    List.iter
      (fun (c : Vcd_parse.change) ->
        if c.Vcd_parse.id = "#" && c.Vcd_parse.value <> "x" then
          Alcotest.(check int) "cluster vector width" 8
            (String.length c.Vcd_parse.value))
      parsed.Vcd_parse.changes

let test_parse_rejects_garbage () =
  match Vcd_parse.parse "$var wire oops $end" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error"

let tests =
  ( "vcd",
    [
      Alcotest.test_case "structure" `Quick test_structure;
      Alcotest.test_case "parse back" `Quick test_parse_back;
      Alcotest.test_case "consistent with executor" `Quick
        test_consistent_with_executor;
      Alcotest.test_case "binary widths" `Quick test_binary_widths;
      Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
    ] )

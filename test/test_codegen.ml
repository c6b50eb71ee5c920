(* The code generator: program structure, assembly round-trip, and the
   interpreter's cycle-exact agreement with the schedule executor. *)

module I = Codegen.Instruction
module Fb = Morphosys.Frame_buffer

let config = Morphosys.Config.m1 ~fb_set_size:1024

let ds_schedule () =
  let app = Fixtures.toy () in
  let clustering = Fixtures.toy_clustering app in
  match Fixtures.run "ds" (Sched.Sched_ctx.make app clustering) config with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_emit_structure () =
  let s = ds_schedule () in
  let program = Codegen.Emit.program s in
  (* ends with halt, has one dmaw per step *)
  (match Msutil.Listx.last program with
  | Some I.Halt -> ()
  | _ -> Alcotest.fail "program must end with halt");
  let count pred = List.length (List.filter pred program) in
  Alcotest.(check int) "one dmaw per step"
    (List.length s.Sched.Schedule.steps)
    (count (fun i -> i = I.Dma_wait));
  (* every kernel execution is preceded by its context broadcast *)
  let rec check_pairs = function
    | I.Cbcast { kernel = k1; _ } :: I.Execute { kernel = k2; _ } :: rest ->
      Alcotest.(check string) "broadcast matches execute" k1 k2;
      check_pairs rest
    | I.Execute _ :: _ -> Alcotest.fail "execute without preceding cbcast"
    | _ :: rest -> check_pairs rest
    | [] -> ()
  in
  check_pairs program;
  (* program DMA words = schedule DMA words *)
  Alcotest.(check int) "dma words preserved"
    (Sched.Schedule.total_dma_words s)
    (I.dma_words program)

let test_interp_matches_executor_toy () =
  let s = ds_schedule () in
  let program = Codegen.Emit.program s in
  let r = Codegen.Interp.run config program in
  let m = Msim.Executor.run config s in
  Alcotest.(check int) "cycles agree" m.Msim.Metrics.total_cycles
    r.Codegen.Interp.cycles;
  Alcotest.(check int) "dma busy agrees" m.Msim.Metrics.dma_cycles
    r.Codegen.Interp.dma_busy_cycles;
  Alcotest.(check int) "loads agree" m.Msim.Metrics.data_words_loaded
    r.Codegen.Interp.data_words_loaded;
  Alcotest.(check int) "stores agree" m.Msim.Metrics.data_words_stored
    r.Codegen.Interp.data_words_stored;
  Alcotest.(check int) "contexts agree" m.Msim.Metrics.context_words_loaded
    r.Codegen.Interp.context_words_loaded

let test_interp_matches_executor_table1 () =
  List.iter
    (fun (e : Workloads.Table1.experiment) ->
      let check (s : Sched.Schedule.t) =
        let r = Codegen.Interp.run e.Workloads.Table1.config (Codegen.Emit.program s) in
        let m = Msim.Executor.run e.Workloads.Table1.config s in
        Alcotest.(check int)
          (e.Workloads.Table1.id ^ "/" ^ s.Sched.Schedule.scheduler)
          m.Msim.Metrics.total_cycles r.Codegen.Interp.cycles
      in
      let ctx =
        Sched.Sched_ctx.make e.Workloads.Table1.app
          e.Workloads.Table1.clustering
      in
      List.iter
        (fun name ->
          match
            Sched.Scheduler_registry.run name ctx e.Workloads.Table1.config
          with
          | Ok s -> check s
          | Error _ -> ())
        [ "basic"; "ds"; "cds" ])
    (Workloads.Table1.all ())

let test_interp_fault_on_bad_store () =
  let program =
    [
      I.Stfb { set = Fb.Set_a; name = "ghost"; iter = I.Abs 0; words = 8 };
      I.Halt;
    ]
  in
  match Codegen.Interp.run config program with
  | exception Codegen.Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault"

let test_interp_fault_on_missing_halt () =
  match Codegen.Interp.run config [ I.Dma_wait ] with
  | exception Codegen.Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault"

let test_interp_fault_on_oversized_context () =
  let program = [ I.Ldctxt { label = "huge"; words = 10_000 }; I.Halt ] in
  match Codegen.Interp.run config program with
  | exception Codegen.Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault"

let test_interp_context_eviction () =
  let small = Morphosys.Config.make ~fb_set_size:1024 ~cm_capacity:100 () in
  let program =
    [
      I.Ldctxt { label = "a"; words = 60 };
      I.Ldctxt { label = "b"; words = 60 };
      (* must evict a *)
      I.Halt;
    ]
  in
  let r = Codegen.Interp.run small program in
  Alcotest.(check int) "one eviction" 1 r.Codegen.Interp.context_evictions;
  Alcotest.(check int) "both transfers charged" 120
    r.Codegen.Interp.context_words_loaded

let test_asm_round_trip_hand () =
  let program =
    [
      I.Comment "hand-written";
      I.Ldctxt { label = "Cl0"; words = 768 };
      I.Ldfb { set = Fb.Set_a; name = "coeff"; iter = I.Abs 0; words = 256 };
      I.Stfb { set = Fb.Set_b; name = "out"; iter = I.Abs 3; words = 64 };
      I.Dma_wait;
      I.Cbcast { kernel = "iq"; contexts = 384 };
      I.Execute { kernel = "iq"; cycles = 520; iterations = 2 };
      I.Loop
        {
          start = 4;
          stride = 2;
          count = 3;
          body =
            [
              I.Ldfb
                { set = Fb.Set_a; name = "coeff"; iter = I.Rel 0; words = 256 };
              I.Wrfb { set = Fb.Set_a; name = "dequant"; iter = I.Rel 1 };
              I.Stfb
                { set = Fb.Set_b; name = "out"; iter = I.Rel (-1); words = 64 };
              I.Dma_wait;
            ];
        };
      I.Halt;
    ]
  in
  match Codegen.Asm.parse (Codegen.Asm.to_string program) with
  | Ok parsed ->
    Alcotest.(check int) "same length" (List.length program) (List.length parsed);
    List.iter2
      (fun a b -> Alcotest.(check bool) "instruction preserved" true (I.equal a b))
      program parsed
  | Error e -> Alcotest.fail e

let test_asm_parse_errors () =
  let expect_error text =
    match Codegen.Asm.parse text with
    | Error msg ->
      Alcotest.(check bool) "mentions line" true
        (Astring_contains.contains msg "line")
    | Ok _ -> Alcotest.fail ("expected parse error for: " ^ text)
  in
  expect_error "frobnicate x, y";
  expect_error "ldfb Q, label@0, 12";
  expect_error "ldfb A, noatsign, 12";
  expect_error "exec k, notanint, 2";
  expect_error "ldctxt onlyonearg";
  expect_error "loop 1, 2, 3\ndmaw";
  expect_error "endloop"

let prop_asm_round_trip =
  QCheck.Test.make ~name:"emitted programs round-trip through asm" ~count:50
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let ctx = Sched.Sched_ctx.make app clustering in
      match Fixtures.run "ds" ctx Fixtures.big_config with
      | Error _ -> false
      | Ok s -> (
        let program = Codegen.Emit.program s in
        match Codegen.Asm.parse (Codegen.Asm.to_string program) with
        | Ok parsed -> List.for_all2 I.equal program parsed
        | Error _ -> false))

let prop_interp_matches_executor =
  QCheck.Test.make ~name:"interpreter = executor on random apps" ~count:75
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let config = Fixtures.big_config in
      match Fixtures.cds (Sched.Sched_ctx.make app clustering) config with
      | Error _ -> false
      | Ok r ->
        let s = r.Cds.Complete_data_scheduler.schedule in
        let interp = Codegen.Interp.run config (Codegen.Emit.program s) in
        let metrics = Msim.Executor.run config s in
        interp.Codegen.Interp.cycles = metrics.Msim.Metrics.total_cycles)

let test_looped_unrolls_to_unrolled () =
  List.iter
    (fun (e : Workloads.Table1.experiment) ->
      let app = e.Workloads.Table1.app
      and clustering = e.Workloads.Table1.clustering
      and config = e.Workloads.Table1.config in
      match Fixtures.cds (Sched.Sched_ctx.make app clustering) config with
      | Error _ -> ()
      | Ok r ->
        let s = r.Cds.Complete_data_scheduler.schedule in
        let strip = List.filter (function I.Comment _ -> false | _ -> true) in
        let unrolled = strip (Codegen.Emit.program s) in
        let looped = Codegen.Emit.program_looped s in
        let expanded = strip (I.unroll looped) in
        Alcotest.(check int)
          (e.Workloads.Table1.id ^ " same length")
          (List.length unrolled) (List.length expanded);
        List.iter2
          (fun a b ->
            if not (I.equal a b) then
              Alcotest.fail
                (Format.asprintf "%s: %a <> %a" e.Workloads.Table1.id I.pp a
                   I.pp b))
          unrolled expanded)
    (Workloads.Table1.all ())

let test_looped_compresses () =
  (* MPEG at 2K runs 30 rounds: the looped program must be much smaller *)
  let e = Workloads.Table1.by_id "MPEG" in
  let ctx =
    Sched.Sched_ctx.make e.Workloads.Table1.app e.Workloads.Table1.clustering
  in
  match Fixtures.cds ctx e.Workloads.Table1.config with
  | Error err -> Alcotest.fail err
  | Ok r ->
    let s = r.Cds.Complete_data_scheduler.schedule in
    let unrolled = I.size (Codegen.Emit.program s) in
    let looped = I.size (Codegen.Emit.program_looped s) in
    Alcotest.(check bool)
      (Printf.sprintf "looped %d << unrolled %d" looped unrolled)
      true
      (looped * 5 < unrolled);
    (* and it still interprets to the same cycle count *)
    let cycles p =
      (Codegen.Interp.run e.Workloads.Table1.config p).Codegen.Interp.cycles
    in
    Alcotest.(check int) "same interpreted cycles"
      (cycles (Codegen.Emit.program s))
      (cycles (Codegen.Emit.program_looped s))

let test_rel_outside_loop_faults () =
  let program =
    [ I.Ldfb { set = Fb.Set_a; name = "d"; iter = I.Rel 0; words = 4 }; I.Halt ]
  in
  match Codegen.Interp.run config program with
  | exception Codegen.Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault"

let prop_looped_interp_matches =
  QCheck.Test.make ~name:"looped program = executor on random apps" ~count:50
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let config = Fixtures.big_config in
      match Fixtures.cds (Sched.Sched_ctx.make app clustering) config with
      | Error _ -> false
      | Ok r ->
        let s = r.Cds.Complete_data_scheduler.schedule in
        let interp =
          Codegen.Interp.run config (Codegen.Emit.program_looped s)
        in
        let metrics = Msim.Executor.run config s in
        interp.Codegen.Interp.cycles = metrics.Msim.Metrics.total_cycles
        && interp.Codegen.Interp.data_words_loaded
           = metrics.Msim.Metrics.data_words_loaded)

let prop_looped_asm_round_trip =
  QCheck.Test.make ~name:"looped programs round-trip through asm" ~count:50
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let ctx = Sched.Sched_ctx.make app clustering in
      match Fixtures.run "ds" ctx Fixtures.big_config with
      | Error _ -> false
      | Ok s -> (
        let program = Codegen.Emit.program_looped s in
        match Codegen.Asm.parse (Codegen.Asm.to_string program) with
        | Ok parsed -> List.for_all2 I.equal program parsed
        | Error _ -> false))

let tests =
  ( "codegen",
    [
      Alcotest.test_case "emit structure" `Quick test_emit_structure;
      Alcotest.test_case "interp = executor (toy)" `Quick
        test_interp_matches_executor_toy;
      Alcotest.test_case "interp = executor (table1)" `Quick
        test_interp_matches_executor_table1;
      Alcotest.test_case "fault: bad store" `Quick test_interp_fault_on_bad_store;
      Alcotest.test_case "fault: missing halt" `Quick
        test_interp_fault_on_missing_halt;
      Alcotest.test_case "fault: oversized context" `Quick
        test_interp_fault_on_oversized_context;
      Alcotest.test_case "context eviction" `Quick test_interp_context_eviction;
      Alcotest.test_case "asm round trip" `Quick test_asm_round_trip_hand;
      Alcotest.test_case "asm parse errors" `Quick test_asm_parse_errors;
      QCheck_alcotest.to_alcotest prop_asm_round_trip;
      QCheck_alcotest.to_alcotest prop_interp_matches_executor;
      Alcotest.test_case "looped unrolls to unrolled" `Quick
        test_looped_unrolls_to_unrolled;
      Alcotest.test_case "looped compresses" `Quick test_looped_compresses;
      Alcotest.test_case "rel outside loop faults" `Quick
        test_rel_outside_loop_faults;
      QCheck_alcotest.to_alcotest prop_looped_interp_matches;
      QCheck_alcotest.to_alcotest prop_looped_asm_round_trip;
    ] )

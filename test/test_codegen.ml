(* The code generator as a test oracle: program structure, and the
   interpreter's cycle-exact agreement with the schedule executor. *)

module I = Instruction
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
  let program = Emit.program s in
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
  let program = Emit.program s in
  let r = Interp.run config program in
  let m = Msim.Executor.run config s in
  Alcotest.(check int) "cycles agree" m.Msim.Metrics.total_cycles
    r.Interp.cycles;
  Alcotest.(check int) "dma busy agrees" m.Msim.Metrics.dma_cycles
    r.Interp.dma_busy_cycles;
  Alcotest.(check int) "loads agree" m.Msim.Metrics.data_words_loaded
    r.Interp.data_words_loaded;
  Alcotest.(check int) "stores agree" m.Msim.Metrics.data_words_stored
    r.Interp.data_words_stored;
  Alcotest.(check int) "contexts agree" m.Msim.Metrics.context_words_loaded
    r.Interp.context_words_loaded

let test_interp_matches_executor_table1 () =
  List.iter
    (fun (e : Workloads.Table1.experiment) ->
      let check (s : Sched.Schedule.t) =
        let r = Interp.run e.Workloads.Table1.config (Emit.program s) in
        let m = Msim.Executor.run e.Workloads.Table1.config s in
        Alcotest.(check int)
          (e.Workloads.Table1.id ^ "/" ^ s.Sched.Schedule.scheduler)
          m.Msim.Metrics.total_cycles r.Interp.cycles
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
    [ I.Stfb { set = Fb.Set_a; name = "ghost"; iter = 0; words = 8 }; I.Halt ]
  in
  match Interp.run config program with
  | exception Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault"

let test_interp_fault_on_missing_halt () =
  match Interp.run config [ I.Dma_wait ] with
  | exception Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a fault"

let test_interp_fault_on_oversized_context () =
  let program = [ I.Ldctxt { label = "huge"; words = 10_000 }; I.Halt ] in
  match Interp.run config program with
  | exception Interp.Fault _ -> ()
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
  let r = Interp.run small program in
  Alcotest.(check int) "one eviction" 1 r.Interp.context_evictions;
  Alcotest.(check int) "both transfers charged" 120
    r.Interp.context_words_loaded

let prop_interp_matches_executor =
  QCheck.Test.make ~name:"interpreter = executor on random apps" ~count:75
    Workloads.Random_app.arb_app_with_clustering (fun (app, clustering) ->
      let config = Fixtures.big_config in
      match Fixtures.cds (Sched.Sched_ctx.make app clustering) config with
      | Error _ -> false
      | Ok r ->
        let s = r.Cds.Complete_data_scheduler.schedule in
        let interp = Interp.run config (Emit.program s) in
        let metrics = Msim.Executor.run config s in
        interp.Interp.cycles = metrics.Msim.Metrics.total_cycles)

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
      QCheck_alcotest.to_alcotest prop_interp_matches_executor;
    ] )

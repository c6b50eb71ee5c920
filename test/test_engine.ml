(* Engine subsystem units: pool ordering and fault isolation,
   content-addressed keys, stats accumulation. *)

let test_pool_ordering () =
  let tasks = Array.init 37 (fun i () -> i * i) in
  let expected = Array.init 37 (fun i -> Ok (i * i)) in
  let slots = Alcotest.(array (result int reject)) in
  List.iter
    (fun jobs ->
      Alcotest.check slots
        (Printf.sprintf "jobs=%d preserves task order" jobs)
        expected
        (Engine.Pool.run_results ~jobs tasks))
    [ 1; 2; 4; 8 ];
  Alcotest.check slots "empty" [||] (Engine.Pool.run_results ~jobs:4 [||])

let test_pool_recommended () =
  Alcotest.(check bool) "at least one domain" true
    (Engine.Pool.recommended_jobs () >= 1)

let test_key_digests () =
  let d1 = Engine.Key.digest_value (1, [ "a"; "b" ], 3.0) in
  let d2 = Engine.Key.digest_value (1, [ "a"; "b" ], 3.0) in
  let d3 = Engine.Key.digest_value (1, [ "a"; "c" ], 3.0) in
  Alcotest.(check string) "structural equality -> equal digest" d1 d2;
  Alcotest.(check bool) "different value -> different digest" true (d1 <> d3);
  Alcotest.(check bool) "combine keeps boundaries" true
    (Engine.Key.combine [ "ab"; "c" ] <> Engine.Key.combine [ "a"; "bc" ]);
  (* the digest a sweep uses: a real application round-trips *)
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  Alcotest.(check string) "application digest is stable"
    (Engine.Key.digest_value (app, clustering))
    (Engine.Key.digest_value (Workloads.Mpeg.app (), clustering))

let test_stats () =
  let st = Engine.Stats.create () in
  Alcotest.(check int) "fresh" 0 (Engine.Stats.tasks_run st);
  let v = Engine.Stats.time st ~label:"ds" (fun () -> 7) in
  Alcotest.(check int) "thunk value" 7 v;
  Engine.Stats.record st ~label:"ds" ~wall:0.25 ~cpu:0.2;
  Engine.Stats.record st ~label:"cds" ~wall:1.0 ~cpu:0.9;
  Alcotest.(check int) "tasks counted" 3 (Engine.Stats.tasks_run st);
  (match Engine.Stats.entries st with
  | [ cds; ds ] ->
    Alcotest.(check string) "sorted by label" "cds" cds.Engine.Stats.label;
    Alcotest.(check int) "ds count" 2 ds.Engine.Stats.count;
    Alcotest.(check bool) "ds wall accumulated" true
      (ds.Engine.Stats.wall >= 0.25);
    Alcotest.(check bool) "max >= min" true
      (ds.Engine.Stats.max_wall >= ds.Engine.Stats.min_wall)
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  Engine.Stats.note_store st ~replayed:5 ~recomputed:3 ~quarantined:0;
  Engine.Stats.note_store st ~replayed:1 ~recomputed:0 ~quarantined:0;
  Alcotest.(check int) "cache hits accumulate" 6 (Engine.Stats.cache_hits st);
  Alcotest.(check int) "cache misses accumulate" 3
    (Engine.Stats.cache_misses st);
  (* timing is recorded even when the thunk raises *)
  (match Engine.Stats.time st ~label:"boom" (fun () -> failwith "x") with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "failed task still timed" 4
    (Engine.Stats.tasks_run st);
  let rendered = Format.asprintf "%a" Engine.Stats.pp st in
  Alcotest.(check bool) "pp mentions cache" true
    (Astring_contains.contains rendered "cache")

let test_pool_bad_jobs () =
  List.iter
    (fun jobs ->
      match Engine.Pool.run_results ~jobs [| (fun () -> 1) |] with
      | (_ : (int, Diag.t) result array) ->
        Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "message names jobs" true
          (Astring_contains.contains msg "jobs"))
    [ 0; -1 ]

(* More jobs than the runtime can hold live domains (128 in OCaml 5.1):
   the pool runs on the hardware's workers instead of raising. *)
let test_pool_spawn_cap () =
  let tasks =
    Array.init 300 (fun i () ->
        Unix.sleepf 0.05;
        i)
  in
  Alcotest.(check (array (result int reject)))
    "every task ran, in task order"
    (Array.init 300 (fun i -> Ok i))
    (Engine.Pool.run_results ~jobs:300 tasks)

(* The domains the tasks of a call ran on. Each task sleeps, so every
   worker the call has gets some of them. *)
let domains_of ?(crash = false) ~jobs () =
  Engine.Pool.run_results ~jobs
    (Array.init 8 (fun i () ->
         Unix.sleepf 0.001;
         if crash && i mod 2 = 0 then failwith "crash";
         (Domain.self () :> int)))
  |> Array.to_list
  |> List.filter_map Result.to_option
  |> List.sort_uniq compare

(* Helper domains are kept between calls: back-to-back calls run on the
   same two domains, a call whose tasks crash leaves the helper serving,
   a smaller call after a bigger one still runs on only as many domains as
   it asked for, and a call at jobs=1 stops the kept helper, so the next
   call runs on a new one. On one hardware thread every call runs on the
   caller alone. *)
let test_pool_reuses_helpers () =
  let seen =
    List.init 100 (fun k -> domains_of ~crash:(k mod 10 = 5) ~jobs:2 ())
    |> List.concat |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "100 calls at jobs=2 ran on %d domains (at most 2)"
       (List.length seen))
    true
    (Engine.Pool.recommended_jobs () < 2 || List.length seen <= 2);
  ignore (domains_of ~jobs:4 ());
  let after = domains_of ~jobs:2 () in
  Alcotest.(check bool)
    (Printf.sprintf "jobs=2 after jobs=4 ran on %d domains (at most 2)"
       (List.length after))
    true
    (List.length after <= 2);
  ignore (domains_of ~jobs:1 ());
  let again = domains_of ~jobs:2 () in
  let me = (Domain.self () :> int) in
  Alcotest.(check (list int))
    "no helper of a call before jobs=1 runs a later task" []
    (List.filter (fun d -> d <> me && List.mem d after) again)

(* A call made while the pool serves another (from inside one of its tasks,
   or from a second domain at the same time) finishes without waiting for
   it, and both calls keep their order and run each task once. *)
let test_pool_nested_and_concurrent () =
  let slots = Alcotest.(array (result int reject)) in
  let counted runs base =
    Array.init (Array.length runs) (fun i () ->
        Atomic.incr runs.(i);
        Unix.sleepf 0.0005;
        base + i)
  in
  let expect ~what runs base got =
    Alcotest.check slots
      (what ^ ": every slot in task order")
      (Array.init (Array.length runs) (fun i -> Ok (base + i)))
      got;
    Array.iteri
      (fun i r ->
        Alcotest.(check int)
          (Printf.sprintf "%s: task %d ran once" what i)
          1 (Atomic.get r))
      runs
  in
  let fresh n = Array.init n (fun _ -> Atomic.make 0) in
  let inner_runs = Array.init 6 (fun _ -> fresh 5) in
  let outer_runs = fresh 6 in
  let outer =
    Engine.Pool.run_results ~jobs:2
      (Array.init 6 (fun i () ->
           Atomic.incr outer_runs.(i);
           Engine.Pool.run_results ~jobs:2 (counted inner_runs.(i) (10 * i))))
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | Ok got ->
        expect ~what:(Printf.sprintf "nested call %d" i) inner_runs.(i)
          (10 * i) got;
        Alcotest.(check int) "outer task ran once" 1
          (Atomic.get outer_runs.(i))
      | Error d -> Alcotest.failf "outer task %d failed: %s" i (Diag.render d))
    outer;
  let mine = fresh 40 and theirs = fresh 40 in
  let other =
    Domain.spawn (fun () ->
        Engine.Pool.run_results ~jobs:2 (counted theirs 1000))
  in
  let got = Engine.Pool.run_results ~jobs:2 (counted mine 0) in
  expect ~what:"concurrent call, this domain" mine 0 got;
  expect ~what:"concurrent call, other domain" theirs 1000 (Domain.join other)

(* A call asking for more workers than the hardware runs at once runs on
   no more domains than it has threads. *)
let test_pool_clamps_jobs () =
  let cap = Engine.Pool.recommended_jobs () in
  let seen = domains_of ~jobs:(cap + 2) () in
  Alcotest.(check bool)
    (Printf.sprintf "jobs=%d ran on %d domains (at most %d)" (cap + 2)
       (List.length seen) cap)
    true
    (List.length seen <= cap)

(* A call from inside a pool task finds the pool busy and runs its tasks
   on that task's own domain. *)
let test_pool_nested_runs_inline () =
  Engine.Pool.run_results ~jobs:2
    (Array.init 4 (fun _ () ->
         let outer = (Domain.self () :> int) in
         (outer, domains_of ~jobs:2 ())))
  |> Array.iteri (fun i slot ->
         match slot with
         | Ok (outer, inner) ->
           Alcotest.(check (list int))
             (Printf.sprintf "nested call in task %d" i)
             [ outer ] inner
         | Error d -> Alcotest.failf "task %d failed: %s" i (Diag.render d))

(* A task's crash diagnostic carries a backtrace exactly when the caller
   records backtraces, whichever domain ran the task: a spawned domain
   does not inherit the caller's setting, and a kept one would keep the
   setting of whichever call woke it last. *)
let test_pool_backtraces () =
  let restore = Printexc.backtrace_status () in
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace restore)
  @@ fun () ->
  let crash () = failwith "crash" in
  List.iter
    (fun (record, jobs) ->
      Printexc.record_backtrace record;
      Engine.Pool.run_results ~jobs
        (Array.init 16 (fun _ () ->
             Unix.sleepf 0.0005;
             (crash [@inlined never]) ()))
      |> Array.iteri (fun i slot ->
             match slot with
             | Ok () -> Alcotest.failf "task %d did not crash" i
             | Error d ->
               Alcotest.(check bool)
                 (Printf.sprintf "recording %b, jobs=%d, task %d" record jobs
                    i)
                 record
                 (Option.value ~default:"" d.Diag.backtrace <> "")))
    [ (true, 1); (true, 2); (false, 1); (false, 2); (true, 2) ]

let test_run_results_isolation () =
  List.iter
    (fun jobs ->
      let tasks =
        Array.init 9 (fun i () ->
            if i = 4 then failwith "crash4";
            i * 10)
      in
      let slots = Engine.Pool.run_results ~jobs tasks in
      Array.iteri
        (fun i slot ->
          match slot with
          | Ok v when i <> 4 ->
            Alcotest.(check int)
              (Printf.sprintf "jobs=%d slot %d survives" jobs i)
              (i * 10) v
          | Error d when i = 4 ->
            Alcotest.(check string) "crash code" "TASK_CRASHED"
              (Diag.code_name d.Diag.code);
            Alcotest.(check bool) "message carries the exception" true
              (Astring_contains.contains (Diag.render d) "crash4")
          | Ok _ -> Alcotest.failf "slot 4 should have crashed (jobs=%d)" jobs
          | Error d ->
            Alcotest.failf "slot %d unexpectedly failed: %s" i
              (Diag.render d))
        slots)
    [ 1; 4 ]

let test_digest_guard () =
  (* pure data digests with both entry points *)
  let v = (1, [ "a" ], 2.5) in
  (match Engine.Key.digest_value_result v with
  | Ok d ->
    Alcotest.(check string) "result form agrees with the raising form" d
      (Engine.Key.digest_value v)
  | Error d -> Alcotest.failf "pure data refused: %s" (Diag.render d));
  (* a closure is not content-addressable: structured diag, not a crash *)
  let closure = fun x -> x + 1 in
  (match Engine.Key.digest_value_result closure with
  | Ok _ -> Alcotest.fail "closures must not digest"
  | Error d ->
    Alcotest.(check string) "INVALID_APP" "INVALID_APP"
      (Diag.code_name d.Diag.code);
    Alcotest.(check bool) "explains the contract" true
      (Astring_contains.contains (Diag.to_string d) "content-addressable"));
  match Engine.Key.digest_value closure with
  | (_ : string) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "raising form names itself" true
      (Astring_contains.contains msg "digest_value")

let test_stats_store_counters () =
  let st = Engine.Stats.create () in
  Alcotest.(check int) "fresh replayed" 0 (Engine.Stats.store_replayed st);
  Engine.Stats.note_store st ~replayed:5 ~recomputed:1 ~quarantined:1;
  Engine.Stats.note_store st ~replayed:2 ~recomputed:0 ~quarantined:0;
  Alcotest.(check int) "replayed accumulates" 7
    (Engine.Stats.store_replayed st);
  Alcotest.(check int) "quarantined accumulates" 1
    (Engine.Stats.store_quarantined st);
  let rendered = Format.asprintf "%a" Engine.Stats.pp st in
  Alcotest.(check bool) "pp mentions the store" true
    (Astring_contains.contains rendered "store: 7 replayed / 1 quarantined")

let test_fault_injection () =
  (* rate 1.0: every pool visit fires; without retries every slot is an
     absorbed Fault_injected diagnostic, never an uncaught exception *)
  Engine.Faults.with_plan
    (Engine.Faults.plan ~rate:1.0 ~seed:11 ())
    (fun () ->
      let slots =
        Engine.Pool.run_results ~jobs:4 (Array.init 12 (fun i () -> i))
      in
      Array.iter
        (function
          | Error d ->
            Alcotest.(check string) "injected code" "FAULT_INJECTED"
              (Diag.code_name d.Diag.code)
          | Ok _ -> Alcotest.fail "rate-1.0 plan must fire on every task")
        slots;
      Alcotest.(check int) "one fault per task: a felled task is not re-run"
        12
        (Engine.Faults.injected_count ()));
  (* with_plan disarms on the way out: a later pool run fires nothing *)
  Array.iter
    (function
      | Ok _ -> ()
      | Error d ->
        Alcotest.failf "pool fired after with_plan: %s" (Diag.render d))
    (Engine.Pool.run_results ~jobs:2 (Array.init 4 (fun i () -> i)));
  (* determinism: the same plan fires the same visits, and the firing set
     is a fixed function of (seed, "pool", n) *)
  let fired_of () =
    Engine.Faults.with_plan
      (Engine.Faults.plan ~rate:0.4 ~seed:5 ())
      (fun () ->
        Engine.Pool.run_results ~jobs:1 (Array.init 20 (fun i () -> i))
        |> Array.map Result.is_error)
  in
  Alcotest.(check (array bool)) "seeded firings reproducible" (fired_of ())
    (fired_of ());
  Alcotest.(check (array bool)) "seed 5, rate 0.4: the pinned firing set"
    [| false; false; true; false; true; false; true; false; true; false;
       true; false; true; true; true; false; false; false; false; false |]
    (fired_of ())

let test_fault_retries () =
  (* run_results makes no retries: a task felled by an injected fault is
     reported once and its body never runs, and every other task runs once *)
  let runs = Array.init 16 (fun _ -> Atomic.make 0) in
  Engine.Faults.with_plan
    (Engine.Faults.plan ~rate:0.5 ~seed:3 ())
    (fun () ->
      let slots =
        Engine.Pool.run_results ~jobs:2
          (Array.init 16 (fun i () ->
               Atomic.incr runs.(i);
               i))
      in
      let felled = ref 0 in
      Array.iteri
        (fun i slot ->
          match slot with
          | Ok v ->
            Alcotest.(check int) "survivor value" i v;
            Alcotest.(check int) "survivor ran once" 1 (Atomic.get runs.(i))
          | Error d ->
            incr felled;
            Alcotest.(check string) "injected code" "FAULT_INJECTED"
              (Diag.code_name d.Diag.code);
            Alcotest.(check int) "felled task not re-run" 0
              (Atomic.get runs.(i)))
        slots;
      Alcotest.(check bool) "some faults did fire" true (!felled > 0);
      Alcotest.(check int) "one fault per felled task" !felled
        (Engine.Faults.injected_count ()));
  (* a crash is reported, not re-run *)
  let attempts = Atomic.make 0 in
  let slots =
    Engine.Pool.run_results
      [| (fun () ->
           Atomic.incr attempts;
           failwith "hard") |]
  in
  Alcotest.(check bool) "crash reported" true (Result.is_error slots.(0));
  Alcotest.(check int) "a crashed task runs once" 1 (Atomic.get attempts)

let tests =
  ( "engine",
    [
      Alcotest.test_case "pool ordering" `Quick test_pool_ordering;
      Alcotest.test_case "pool recommended jobs" `Quick test_pool_recommended;
      Alcotest.test_case "pool bad jobs" `Quick test_pool_bad_jobs;
      Alcotest.test_case "pool degrades past the domain cap" `Quick
        test_pool_spawn_cap;
      Alcotest.test_case "run_results isolation" `Quick
        test_run_results_isolation;
      Alcotest.test_case "digest guard on unmarshalable values" `Quick
        test_digest_guard;
      Alcotest.test_case "stats store counters" `Quick
        test_stats_store_counters;
      Alcotest.test_case "fault injection" `Quick test_fault_injection;
      Alcotest.test_case "fault retries" `Quick test_fault_retries;
      Alcotest.test_case "key digests" `Quick test_key_digests;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "pool reuses its helpers" `Quick
        test_pool_reuses_helpers;
      Alcotest.test_case "pool nested and concurrent calls" `Quick
        test_pool_nested_and_concurrent;
      Alcotest.test_case "pool backtraces on every domain" `Quick
        test_pool_backtraces;
      Alcotest.test_case "pool clamps jobs to the hardware" `Quick
        test_pool_clamps_jobs;
      Alcotest.test_case "pool nested call runs inline" `Quick
        test_pool_nested_runs_inline;
    ] )

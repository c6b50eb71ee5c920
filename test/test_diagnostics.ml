(* Structured diagnostics and the total input checks ([Kernel.check],
   [Data.check], [Application.check], [Cluster.check_partition],
   [Cluster.check]) that the constructors raise on. *)

module Kernel = Kernel_ir.Kernel
module Data = Kernel_ir.Data
module Application = Kernel_ir.Application
module Cluster = Kernel_ir.Cluster

let contains = Astring_contains.contains

let test_diag_basics () =
  let d =
    Diag.v ~scheduler:"basic" ~cluster:2 Diag.Fb_overflow
      "cluster footprint %dw exceeds FB set of %dw (no replacement)" 1048 64
  in
  Alcotest.(check string) "to_string keeps the legacy text"
    "basic: cluster footprint 1048w exceeds FB set of 64w (no replacement)"
    (Diag.to_string d);
  let r = Diag.render d in
  Alcotest.(check bool) "render carries the code" true
    (contains r "[E:FB_OVERFLOW basic]");
  Alcotest.(check bool) "render carries the cluster" true
    (contains r "cluster 2");
  Alcotest.(check bool) "error severity" true (Diag.is_error d);
  let w =
    Diag.v ~severity:Diag.Warning Diag.Store_corrupt "record quarantined"
  in
  Alcotest.(check bool) "warning is not an error" false (Diag.is_error w);
  Alcotest.(check bool) "warning renders as W" true
    (contains (Diag.render w) "[W:STORE_CORRUPT]");
  let retagged = Diag.with_scheduler "cds" d in
  Alcotest.(check string) "with_scheduler retags the prefix"
    "cds: cluster footprint 1048w exceeds FB set of 64w (no replacement)"
    (Diag.to_string retagged);
  (* a diagnostic with no scheduler has no prefix *)
  let bare = Diag.v Diag.Invalid_app "no kernels" in
  Alcotest.(check string) "bare message" "no kernels" (Diag.to_string bare);
  List.iter
    (fun (code, name) ->
      Alcotest.(check string) "code_name" name (Diag.code_name code))
    [
      (Diag.Fb_overflow, "FB_OVERFLOW");
      (Diag.Cm_overflow, "CM_OVERFLOW");
      (Diag.No_feasible_rf, "NO_FEASIBLE_RF");
      (Diag.Invalid_app, "INVALID_APP");
      (Diag.Invalid_clustering, "INVALID_CLUSTERING");
      (Diag.Invalid_config, "INVALID_CONFIG");
      (Diag.Sim_divergence, "SIM_DIVERGENCE");
      (Diag.Task_crashed, "TASK_CRASHED");
      (Diag.Fault_injected, "FAULT_INJECTED");
      (Diag.Store_corrupt, "STORE_CORRUPT");
      (Diag.Sweep_mismatch, "SWEEP_MISMATCH");
    ]

let test_of_exn () =
  let code e = (Diag.of_exn e).Diag.code in
  Alcotest.(check bool) "Invalid_argument -> Invalid_app" true
    (code (Invalid_argument "x") = Diag.Invalid_app);
  Alcotest.(check bool) "Not_found -> Invalid_app" true
    (code Not_found = Diag.Invalid_app);
  Alcotest.(check bool) "anything else -> Task_crashed" true
    (code (Failure "y") = Diag.Task_crashed);
  (match Diag.guard (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "guard passes the value" 42 v
  | Error d -> Alcotest.failf "guard failed: %s" (Diag.render d));
  (match Diag.guard ~scheduler:"ds" (fun () -> failwith "boom") with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error d ->
    Alcotest.(check bool) "guard tags the scheduler" true
      (d.Diag.scheduler = Some "ds");
    Alcotest.(check bool) "guard keeps the message" true
      (contains (Diag.to_string d) "boom"))

(* A hand-broken application: every field violates something. The total
   checker must report all of them in one pass. *)
let test_validate_collects_all () =
  let kernels =
    [
      { Kernel.id = 0; name = ""; contexts = 0; exec_cycles = 5 };
      { Kernel.id = 7; name = "k"; contexts = 10; exec_cycles = 0 };
    ]
  in
  let data =
    [
      {
        Data.id = 0;
        name = "d";
        size = -4;
        producer = Data.External;
        consumers = [];
        final = false;
        invariant = false;
      };
      {
        Data.id = 0;
        name = "d";
        size = 8;
        producer = Data.Produced_by 1;
        consumers = [ 1 ];
        final = false;
        invariant = true;
      };
    ]
  in
  let diags = Application.check ~kernels ~data ~iterations:0 in
  Alcotest.(check bool)
    (Printf.sprintf "many violations collected (got %d)" (List.length diags))
    true
    (List.length diags >= 8);
  let messages = String.concat "\n" (List.map Diag.to_string diags) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "reports %S" needle)
        true (contains messages needle))
    [
      "iterations must be positive";
      "empty name";
      "has id 7 at position 1";
      "non-positive context words";
      "non-positive exec cycles";
      "non-positive size";
      "no consumers";
      "consumes its own result";
      "cannot be iteration-invariant";
      "duplicate data name";
      "duplicate data id";
    ];
  Alcotest.(check bool) "all are errors" true (List.for_all Diag.is_error diags)

let valid_ingredients () =
  let kernels =
    [
      Kernel.make ~id:0 ~name:"k0" ~contexts:10 ~exec_cycles:5;
      Kernel.make ~id:1 ~name:"k1" ~contexts:10 ~exec_cycles:5;
    ]
  in
  let data =
    [
      Data.make ~id:0 ~name:"in" ~size:16 ~producer:Data.External
        ~consumers:[ 0 ] ~final:false ();
      Data.make ~id:1 ~name:"mid" ~size:8 ~producer:(Data.Produced_by 0)
        ~consumers:[ 1 ] ~final:false ();
      Data.make ~id:2 ~name:"out" ~size:8 ~producer:(Data.Produced_by 1)
        ~consumers:[] ~final:true ();
    ]
  in
  (kernels, data)

let test_validate_clean () =
  let kernels, data = valid_ingredients () in
  Alcotest.(check int) "clean ingredients produce no diagnostics" 0
    (List.length (Application.check ~kernels ~data ~iterations:4));
  let app = Application.make ~name:"ok" ~kernels ~data ~iterations:4 in
  Alcotest.(check int) "constructed" 2 (Application.n_kernels app);
  Alcotest.(check int) "audit of a built app is clean" 0
    (List.length
       (Application.check
          ~kernels:(Array.to_list app.Application.kernels)
          ~data:app.Application.data ~iterations:app.Application.iterations));
  let cl = Cluster.of_partition app [ 1; 1 ] in
  Alcotest.(check int) "well-built clustering is clean" 0
    (List.length (Cluster.check app cl))

let test_application_check_rejects () =
  let kernels, data = valid_ingredients () in
  Alcotest.(check bool) "at least the iterations diagnostic" true
    (List.exists
       (fun d -> contains (Diag.to_string d) "iterations")
       (Application.check ~kernels ~data ~iterations:0));
  Alcotest.check_raises "make raises the first diagnostic"
    (Invalid_argument
       "Application.make: iterations must be positive (got 0)")
    (fun () ->
      ignore (Application.make ~name:"bad" ~kernels ~data ~iterations:0))

(* Inputs that crash (or silently run) deeper in the stack when they get
   past construction: a negative data id, a duplicate data id and a record
   literal with a non-positive size. The rejection must come from
   [Application.make] itself, so [Sched_ctx.make] never sees them. *)
let test_rejected_before_sched_ctx () =
  let kernels, data = valid_ingredients () in
  let with_data id f =
    List.map (fun (d : Data.t) -> if d.id = id then f d else d) data
  in
  List.iter
    (fun (needle, data) ->
      match
        Diag.guard (fun () ->
            let app =
              Application.make ~name:"bad" ~kernels ~data ~iterations:4
            in
            Sched.Sched_ctx.make app (Cluster.singleton_per_kernel app))
      with
      | Ok _ -> Alcotest.failf "expected Application.make to reject %S" needle
      | Error d ->
        Alcotest.(check string)
          "Application.make's first diagnostic"
          ("Application.make: " ^ needle)
          (Diag.to_string d))
    [
      ( {|data "out" has negative id -1|},
        with_data 2 (fun d -> { d with Data.id = -1 }) );
      ("duplicate data id 1", with_data 2 (fun d -> { d with Data.id = 1 }));
      ( {|data "mid" has non-positive size -3|},
        with_data 1 (fun d -> { d with Data.size = -3 }) );
    ]

let test_validate_partition () =
  Alcotest.(check int) "good partition" 0
    (List.length (Cluster.check_partition ~n_kernels:4 [ 2; 2 ]));
  let diags = Cluster.check_partition ~n_kernels:4 [ 0; 3 ] in
  let messages = String.concat "\n" (List.map Diag.to_string diags) in
  Alcotest.(check bool) "zero size flagged" true
    (contains messages "non-positive cluster size");
  Alcotest.(check bool) "bad sum flagged" true (contains messages "sum to 3");
  Alcotest.(check bool) "clustering code" true
    (List.for_all (fun d -> d.Diag.code = Diag.Invalid_clustering) diags)

let test_validate_config () =
  let m1 = Morphosys.Config.m1 ~fb_set_size:1024 in
  Alcotest.(check bool) "m1 is clean" true (Morphosys.Config.validate m1 = Ok ());
  let bound = Morphosys.Config.max_quantity in
  Alcotest.(check bool) "the bound itself is accepted" true
    (Morphosys.Config.validate
       { Morphosys.Config.fb_set_size = bound; cm_capacity = bound;
         dma_setup_cycles = bound }
    = Ok ());
  List.iter
    (fun (config, expected) ->
      Alcotest.(check (result unit string)) expected (Error expected)
        (Morphosys.Config.validate config))
    [
      ( { m1 with dma_setup_cycles = bound + 1 },
        "dma_setup_cycles must be at most 1048576" );
      ({ m1 with cm_capacity = max_int }, "cm_capacity must be at most 1048576");
      ( { m1 with fb_set_size = bound + 1 },
        "fb_set_size must be at most 1048576" );
    ]

let tests =
  ( "diagnostics",
    [
      Alcotest.test_case "diag basics" `Quick test_diag_basics;
      Alcotest.test_case "of_exn and guard" `Quick test_of_exn;
      Alcotest.test_case "validate collects all" `Quick
        test_validate_collects_all;
      Alcotest.test_case "validate clean" `Quick test_validate_clean;
      Alcotest.test_case "application check rejects" `Quick
        test_application_check_rejects;
      Alcotest.test_case "rejected before Sched_ctx" `Quick
        test_rejected_before_sched_ctx;
      Alcotest.test_case "validate partition" `Quick test_validate_partition;
      Alcotest.test_case "validate config" `Quick test_validate_config;
    ] )

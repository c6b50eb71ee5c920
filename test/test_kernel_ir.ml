open Kernel_ir

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail ("expected Invalid_argument: " ^ name)

(* -- Kernel ------------------------------------------------------------ *)

let test_kernel_make () =
  let k = Kernel.make ~id:0 ~name:"dct" ~contexts:12 ~exec_cycles:300 in
  Alcotest.(check string) "name" "dct" k.Kernel.name;
  expect_invalid "negative id" (fun () ->
      Kernel.make ~id:(-1) ~name:"x" ~contexts:1 ~exec_cycles:1);
  expect_invalid "empty name" (fun () ->
      Kernel.make ~id:0 ~name:"" ~contexts:1 ~exec_cycles:1);
  expect_invalid "zero contexts" (fun () ->
      Kernel.make ~id:0 ~name:"x" ~contexts:0 ~exec_cycles:1);
  expect_invalid "zero cycles" (fun () ->
      Kernel.make ~id:0 ~name:"x" ~contexts:1 ~exec_cycles:0)

(* -- Data -------------------------------------------------------------- *)

let test_data_make () =
  let d =
    Data.make ~id:0 ~name:"d" ~size:8 ~producer:Data.External
      ~consumers:[ 2; 1; 2 ] ~final:false ()
  in
  Alcotest.(check (list int)) "consumers sorted+deduped" [ 1; 2 ] d.Data.consumers;
  Alcotest.(check (option int)) "first" (Some 1) (Data.first_consumer d);
  Alcotest.(check (option int)) "last" (Some 2) (Data.last_consumer d);
  Alcotest.(check bool) "external" true (Data.is_external d);
  expect_invalid "zero size" (fun () ->
      Data.make ~id:0 ~name:"d" ~size:0 ~producer:Data.External ~consumers:[ 1 ]
        ~final:false ());
  expect_invalid "external without consumers" (fun () ->
      Data.make ~id:0 ~name:"d" ~size:8 ~producer:Data.External ~consumers:[]
        ~final:false ());
  expect_invalid "dead result" (fun () ->
      Data.make ~id:0 ~name:"d" ~size:8 ~producer:(Data.Produced_by 0)
        ~consumers:[] ~final:false ());
  expect_invalid "self consumption" (fun () ->
      Data.make ~id:0 ~name:"d" ~size:8 ~producer:(Data.Produced_by 1)
        ~consumers:[ 1 ] ~final:false ());
  expect_invalid "consumer before producer" (fun () ->
      Data.make ~id:0 ~name:"d" ~size:8 ~producer:(Data.Produced_by 2)
        ~consumers:[ 1 ] ~final:false ())

(* -- Application / Builder --------------------------------------------- *)

let test_application_queries () =
  let app = Fixtures.toy () in
  Alcotest.(check int) "kernels" 4 (Application.n_kernels app);
  Alcotest.(check int) "iterations" 4 app.Application.iterations;
  let inputs k =
    List.map (fun (d : Data.t) -> d.Data.name) (Application.inputs_of app k)
  in
  Alcotest.(check (list string)) "k1 inputs" [ "b"; "r01" ] (inputs 1);
  Alcotest.(check (list string)) "k2 inputs" [ "a"; "f1" ] (inputs 2);
  let outputs k =
    List.map (fun (d : Data.t) -> d.Data.name) (Application.outputs_of app k)
  in
  Alcotest.(check (list string)) "k0 outputs" [ "r01"; "r03" ] (outputs 0);
  Alcotest.(check int) "external count" 2
    (List.length (Application.external_data app));
  Alcotest.(check int) "final count" 2
    (List.length (Application.final_results app));
  Alcotest.(check int) "TDS" 265 (Application.total_data_words app);
  Alcotest.(check int) "total contexts" 400 (Application.total_context_words app);
  Alcotest.(check string) "by name" "k2" (Application.kernel_by_name app "k2").Kernel.name;
  Alcotest.(check int) "data by name size" 30 (Application.data_by_name app "r03").Data.size;
  Alcotest.(check (option string))
    "by name opt" None
    (Option.map
       (fun (k : Kernel.t) -> k.Kernel.name)
       (Application.kernel_by_name_opt app "zz"));
  (match Application.kernel_by_name app "zz" with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the kernel" true
      (Astring_contains.contains msg "zz")
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_builder_errors () =
  expect_invalid "unknown kernel in consumers" (fun () ->
      Builder.(
        create "bad" ~iterations:1
        |> kernel "k" ~contexts:1 ~cycles:1
        |> input "d" ~size:4 ~consumers:[ "nope" ]
        |> build));
  expect_invalid "duplicate kernel names" (fun () ->
      Builder.(
        create "bad" ~iterations:1
        |> kernel "k" ~contexts:1 ~cycles:1
        |> kernel "k" ~contexts:1 ~cycles:1
        |> input "d" ~size:4 ~consumers:[ "k" ]
        |> build));
  expect_invalid "duplicate data names" (fun () ->
      Builder.(
        create "bad" ~iterations:1
        |> kernel "k" ~contexts:1 ~cycles:1
        |> input "d" ~size:4 ~consumers:[ "k" ]
        |> input "d" ~size:4 ~consumers:[ "k" ]
        |> build));
  expect_invalid "no kernels" (fun () ->
      Builder.(create "bad" ~iterations:1 |> build));
  expect_invalid "zero iterations" (fun () ->
      Builder.(
        create "bad" ~iterations:0
        |> kernel "k" ~contexts:1 ~cycles:1
        |> build))

(* -- Cluster ------------------------------------------------------------ *)

let test_cluster_partition () =
  let app = Fixtures.toy () in
  let clustering = Cluster.of_partition app [ 1; 3 ] in
  Alcotest.(check int) "count" 2 (Cluster.n_clusters clustering);
  Alcotest.(check (list int)) "sizes" [ 1; 3 ] (Cluster.partition_sizes clustering);
  let c1 = Cluster.find clustering 1 in
  Alcotest.(check (list int)) "second cluster kernels" [ 1; 2; 3 ] c1.Cluster.kernels;
  Alcotest.(check bool) "sets alternate" true
    (c1.Cluster.fb_set = Morphosys.Frame_buffer.Set_b);
  Alcotest.(check bool) "check ok" true (Cluster.check app clustering = []);
  Alcotest.(check int) "cluster of kernel 2" 1
    (Cluster.cluster_of_kernel clustering 2).Cluster.id;
  expect_invalid "bad sizes" (fun () -> Cluster.of_partition app [ 2; 3 ]);
  expect_invalid "zero size" (fun () -> Cluster.of_partition app [ 0; 4 ]);
  Alcotest.(check int) "singletons" 4
    (Cluster.n_clusters (Cluster.singleton_per_kernel app));
  Alcotest.(check int) "whole" 1
    (Cluster.n_clusters (Cluster.whole_application app))

let test_cluster_validate_rejects () =
  let app = Fixtures.toy () in
  let clustering = Cluster.of_partition app [ 2; 2 ] in
  let broken =
    List.map
      (fun (c : Cluster.t) ->
        { c with Cluster.fb_set = Morphosys.Frame_buffer.Set_a })
      clustering
  in
  Alcotest.(check bool) "non-alternating rejected" true
    (Cluster.check app broken <> []);
  let missing = [ List.hd clustering ] in
  Alcotest.(check bool) "coverage rejected" true
    (Cluster.check app missing <> [])

(* -- Dot ----------------------------------------------------------------- *)

let test_dot () =
  let app = Fixtures.toy () in
  let g = Dot.kernel_graph app in
  Alcotest.(check bool) "digraph" true (Astring_contains.contains g "digraph");
  Alcotest.(check bool) "kernel node" true (Astring_contains.contains g "k3");
  let cg = Dot.clustered_graph app (Fixtures.toy_clustering app) in
  Alcotest.(check bool) "subgraph" true
    (Astring_contains.contains cg "subgraph cluster_0");
  let lf = Dot.loop_fission_graph app ~rf:3 in
  Alcotest.(check bool) "self loop annotated" true
    (Astring_contains.contains lf "RF=3");
  expect_invalid "rf validation" (fun () -> Dot.loop_fission_graph app ~rf:0)

let tests =
  ( "kernel_ir",
    [
      Alcotest.test_case "kernel make" `Quick test_kernel_make;
      Alcotest.test_case "data make" `Quick test_data_make;
      Alcotest.test_case "application queries" `Quick test_application_queries;
      Alcotest.test_case "builder errors" `Quick test_builder_errors;
      Alcotest.test_case "cluster partition" `Quick test_cluster_partition;
      Alcotest.test_case "cluster validate" `Quick test_cluster_validate_rejects;
      Alcotest.test_case "dot export" `Quick test_dot;
    ] )

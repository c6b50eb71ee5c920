(* Hand-built applications shared by several test modules. *)

module B = Kernel_ir.Builder
module Cluster = Kernel_ir.Cluster

(* Four kernels, two clusters (sets A and B). Exercises every data role:
   shared external data across sets, an intra-cluster intermediate, a
   cross-cluster result and a result that is both final and consumed. *)
let toy () =
  B.create "toy" ~iterations:4
  |> B.kernel "k0" ~contexts:100 ~cycles:200
  |> B.kernel "k1" ~contexts:100 ~cycles:200
  |> B.kernel "k2" ~contexts:100 ~cycles:200
  |> B.kernel "k3" ~contexts:100 ~cycles:200
  |> B.input "a" ~size:100 ~consumers:[ "k0"; "k2" ]
  |> B.input "b" ~size:50 ~consumers:[ "k1" ]
  |> B.result "r01" ~size:40 ~producer:"k0" ~consumers:[ "k1" ]
  |> B.result "r03" ~size:30 ~producer:"k0" ~consumers:[ "k3" ]
  |> B.result "f1" ~final:true ~size:25 ~producer:"k1" ~consumers:[ "k2" ]
  |> B.final "f3" ~size:20 ~producer:"k3"
  |> B.build

let toy_clustering app = Cluster.of_partition app [ 2; 2 ]

(* Six kernels, three clusters; clusters 0 and 2 share FB set A and have
   both a shared datum and a shared result between them — the minimal
   retention scenario. *)
let same_set () =
  B.create "same_set" ~iterations:6
  |> B.kernel "k0" ~contexts:64 ~cycles:100
  |> B.kernel "k1" ~contexts:64 ~cycles:100
  |> B.kernel "k2" ~contexts:64 ~cycles:100
  |> B.kernel "k3" ~contexts:64 ~cycles:100
  |> B.kernel "k4" ~contexts:64 ~cycles:100
  |> B.kernel "k5" ~contexts:64 ~cycles:100
  |> B.input "sh" ~size:60 ~consumers:[ "k0"; "k4" ]
  |> B.input "p0" ~size:40 ~consumers:[ "k0" ]
  |> B.input "p1" ~size:40 ~consumers:[ "k2" ]
  |> B.input "p2" ~size:40 ~consumers:[ "k4" ]
  |> B.result "i0" ~size:30 ~producer:"k0" ~consumers:[ "k1" ]
  |> B.result "rshare" ~size:20 ~producer:"k1" ~consumers:[ "k5" ]
  |> B.result "i1" ~size:30 ~producer:"k2" ~consumers:[ "k3" ]
  |> B.final "out0" ~size:10 ~producer:"k1"
  |> B.final "out1" ~size:10 ~producer:"k3"
  |> B.final "out2" ~size:10 ~producer:"k5"
  |> B.build

let same_set_clustering app = Cluster.of_partition app [ 2; 2; 2 ]

(* [app] run for [iterations] iterations instead of its own count. *)
let with_iterations (app : Kernel_ir.Application.t) iterations =
  Kernel_ir.Application.make ~name:app.name
    ~kernels:(Array.to_list app.kernels) ~data:app.data ~iterations

let default_config = Morphosys.Config.m1 ~fb_set_size:1024

let big_config = Morphosys.Config.m1 ~fb_set_size:65536
(* roomy machine for property tests: every random app is feasible *)

(* The canonical entry points with [Diag.to_string] errors, so a test that
   only wants a schedule (or a failure message) stays one line long. *)
let run name ctx config =
  Result.map_error Diag.to_string (Sched.Scheduler_registry.run name ctx config)

let cds ?retention ?cross_set ctx config =
  Result.map_error Diag.to_string
    (Cds.Complete_data_scheduler.run_full ?retention ?cross_set ctx config)

(* The context planner against its list-based reference ([Ctx_plan_oracle]):
   same pinned / reloaded sets, same rotation reserve, same Cm_overflow
   diagnostic and the same per-round context loads — on hand-built edge
   cases, on random applications and clusterings, and at 1000 kernels. *)

module CS = Sched.Context_scheduler
module Cluster = Kernel_ir.Cluster
module Oracle = Ctx_plan_oracle

let config ~cm = Morphosys.Config.make ~fb_set_size:1024 ~cm_capacity:cm ()

let view_diag (d : Diag.t) =
  (Diag.code_name d.Diag.code, d.Diag.cluster, d.Diag.message)

let view = function
  | Ok (p : CS.plan) -> Ok (p.CS.pinned, p.CS.reloaded, p.CS.reserve)
  | Error d -> Error (view_diag d)

let view_oracle = function
  | Ok (p : Oracle.plan) ->
    Ok (p.Oracle.pinned, p.Oracle.reloaded, p.Oracle.reserve)
  | Error d -> Error (view_diag d)

let plan_t =
  Alcotest.(
    result
      (triple (list int) (list int) int)
      (triple string (option int) string))

(* One singleton cluster per kernel, kernel [i] holding [contexts.(i)]
   context words. *)
let singletons contexts =
  let b =
    List.fold_left
      (fun (b, i) c ->
        (Kernel_ir.Builder.kernel (Printf.sprintf "k%d" i) ~contexts:c
           ~cycles:100 b, i + 1))
      (Kernel_ir.Builder.create "ctx" ~iterations:2, 0)
      contexts
    |> fst
  in
  let names = List.mapi (fun i _ -> Printf.sprintf "k%d" i) contexts in
  let app =
    Kernel_ir.Builder.(
      b
      |> input "d" ~size:16 ~consumers:names
      |> final "o" ~size:8 ~producer:(List.nth names (List.length names - 1))
      |> build)
  in
  (app, Cluster.singleton_per_kernel app)

(* Runs both planners; checks they agree, on the plan and on the context
   loads of every cluster at rounds 0 and 1. *)
let agree ~cm app clustering =
  let cfg = config ~cm in
  let got = CS.plan_app cfg app clustering in
  let want = Oracle.plan_app cfg app clustering in
  let loads_agree =
    match (got, want) with
    | Ok p, Ok o ->
      List.for_all
        (fun cluster ->
          List.for_all
            (fun round ->
              CS.load_words_for_round p ~app ~cluster ~round
              = Oracle.load_words_for_round o ~app ~cluster ~round)
            [ 0; 1 ])
        clustering
    | _ -> true
  in
  (view got = view_oracle want && loads_agree, got, want)

let check_case ~cm contexts expected () =
  let app, clustering = singletons contexts in
  let same, got, want = agree ~cm app clustering in
  Alcotest.check plan_t "oracle" (view_oracle want) (view got);
  Alcotest.(check bool) "loads = oracle" true same;
  Alcotest.check plan_t "expected" expected (view got)

(* A final plan never has exactly one unpinned cluster x: x was tried and
   rejected while its reserve was a pair (or one) of the clusters pinned
   after it, so it was no larger than their total — and the final pinned
   total plus x fits. The one-cluster reserve (the cluster's own size)
   still decides steps: with two 60/80 clusters the 80 is tried beside a
   60 reserve, so both pin at 140 words and neither at 139. *)
let cases =
  [
    ("0 unpinned: every rotation reserve fits", 200, [ 100; 60; 40 ],
     Ok ([ 0; 1; 2 ], [], 0));
    ("one-cluster reserve: exactly enough", 140, [ 60; 80 ],
     Ok ([ 0; 1 ], [], 0));
    ("2 unpinned: one-cluster reserve one word short", 139, [ 60; 80 ],
     Ok ([], [ 0; 1 ], 140));
    ("3 unpinned, wrap-around pair is the reserve", 120, [ 30; 60; 10; 30 ],
     Ok ([ 1 ], [ 0; 2; 3 ], 60));
    ("equal sizes: the first cluster pins", 150, [ 50; 50; 50; 50 ],
     Ok ([ 0 ], [ 1; 2; 3 ], 100));
    ("single cluster exactly at cm_capacity", 100, [ 100 ],
     Ok ([ 0 ], [], 0));
    ("cluster at cm_capacity, no room to rotate", 100, [ 100; 40; 60 ],
     Ok ([], [ 0; 1; 2 ], 160));
    ("Cm_overflow names the first cluster over", 100, [ 100; 101; 102 ],
     Error
       ("CM_OVERFLOW", Some 1,
        "cluster 1 needs 101 context words but the CM holds only 100"));
  ]

(* Clusters listed out of id order, with gaps between ids: equal sizes are
   tried in list order, the rotation still follows ascending ids, and the
   context loads fall back off the dense-id fast path. *)
let test_ties_follow_clustering_order () =
  let app, clustering = singletons [ 50; 50; 50; 50 ] in
  let relabel = [| 3; 7; 8; 20 |] in
  let clustering =
    List.map
      (fun c -> { c with Cluster.id = relabel.(c.Cluster.id) })
      clustering
  in
  let listed = List.map (fun i -> List.nth clustering i) [ 2; 0; 1; 3 ] in
  let same, got, want = agree ~cm:150 app listed in
  Alcotest.check plan_t "oracle" (view_oracle want) (view got);
  Alcotest.(check bool) "loads = oracle" true same;
  Alcotest.check plan_t "first listed pins" (Ok ([ 8 ], [ 3; 7; 20 ], 100))
    (view got)

let test_uncovered_cluster_reloads () =
  let app, clustering = singletons [ 50; 30 ] in
  let plan = Result.get_ok (CS.plan_app (config ~cm:4096) app clustering) in
  let stray = { (List.hd clustering) with Cluster.id = 9 } in
  Alcotest.(check int) "words from the application" 50
    (CS.load_words_for_round plan ~app ~cluster:stray ~round:3)

(* The planner at the size the benchmarks claim: 1000 kernels, 500 pair
   clusters, a CM too small to pin them all. *)
let test_1000_kernels () =
  let app = Workloads.Random_app.large ~kernels:1000 ~data:2000 ~seed:1 in
  let clustering = Workloads.Random_app.pairs_clustering app in
  let cfg = Morphosys.Config.make ~fb_set_size:8192 ~cm_capacity:4096 () in
  let got = CS.plan_of_analysis cfg (Kernel_ir.Analysis.make app clustering) in
  let want = Oracle.plan_app cfg app clustering in
  Alcotest.check plan_t "plan_of_analysis = oracle" (view_oracle want)
    (view got);
  match (got, want) with
  | Ok p, Ok o ->
    Alcotest.(check bool) "some pinned, some reloaded" true
      (p.CS.pinned <> [] && p.CS.reloaded <> []);
    List.iter
      (fun cluster ->
        Alcotest.(check int) "round-1 load"
          (Oracle.load_words_for_round o ~app ~cluster ~round:1)
          (CS.load_words_for_round p ~app ~cluster ~round:1))
      clustering
  | _ -> Alcotest.fail "1000-kernel plan must be feasible"

let gen_random =
  QCheck.Gen.(
    let* app, clustering =
      Workloads.Random_app.gen_app_with_clustering ()
    in
    let words = List.map (CS.context_words app) clustering in
    let biggest = Msutil.Listx.max_by Fun.id words in
    let total = List.fold_left ( + ) 0 words in
    let* cm = int_range (biggest - (biggest / 4)) (total + biggest) in
    return (app, clustering, cm))

let prop_random =
  QCheck.Test.make ~name:"plan_app = oracle (random apps)" ~count:300
    (QCheck.make gen_random) (fun (app, clustering, cm) ->
      let same, _, _ = agree ~cm app clustering in
      same)

(* Few distinct sizes (many ties), clusters listed in a random order and
   ids with random gaps. *)
let gen_tied =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* contexts = list_repeat n (oneofl [ 16; 32; 48 ]) in
    let* gaps = list_repeat n (int_range 0 2) in
    let* order = shuffle_l (List.init n Fun.id) in
    let* cm = int_range 16 (48 * (n + 1)) in
    return (contexts, gaps, order, cm))

let print_tied (contexts, gaps, order, cm) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "contexts=[%s] gaps=[%s] order=[%s] cm=%d" (ints contexts)
    (ints gaps) (ints order) cm

let prop_tied =
  QCheck.Test.make ~name:"plan_app = oracle (ties, shuffled ids)" ~count:500
    (QCheck.make ~print:print_tied gen_tied) (fun (contexts, gaps, order, cm) ->
      let app, clustering = singletons contexts in
      let ids =
        List.rev
          (snd
             (List.fold_left
                (fun (next, acc) gap -> (next + gap + 1, (next + gap) :: acc))
                (0, []) gaps))
      in
      let relabelled =
        List.map2 (fun c id -> { c with Cluster.id = id }) clustering ids
      in
      let listed = List.map (fun i -> List.nth relabelled i) order in
      let same, _, _ = agree ~cm app listed in
      same)

let tests =
  ( "ctx_plan",
    List.map
      (fun (name, cm, contexts, expected) ->
        Alcotest.test_case name `Quick (check_case ~cm contexts expected))
      cases
    @ [
        Alcotest.test_case "ties follow clustering order" `Quick
          test_ties_follow_clustering_order;
        Alcotest.test_case "uncovered cluster reloads" `Quick
          test_uncovered_cluster_reloads;
        Alcotest.test_case "1000 kernels = oracle" `Quick test_1000_kernels;
      ]
    @ List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_random; prop_tied ] )

module IE = Info_extractor

type t = {
  app : Application.t;
  clustering : Cluster.clustering;
  clusters : Cluster.t array;
  kernel_cluster : int array;
  data_index : Data.t option array;
  profiles : IE.cluster_profile array;
  sharing : IE.shared list;
  tds : int;
}

let fail fmt = Format.kasprintf invalid_arg fmt

(* [Cluster.check] guarantees every kernel is in exactly one cluster and
   the ids are the positions 0..n-1, the indexing convention of the whole
   module. *)
let kernel_cluster_array app clusters =
  let owner = Array.make (Application.n_kernels app) 0 in
  Array.iter
    (fun (c : Cluster.t) ->
      List.iter (fun kid -> owner.(kid) <- c.Cluster.id) c.Cluster.kernels)
    clusters;
  owner

(* [Application.check] guarantees data ids are unique and non-negative. *)
let data_index_array (app : Application.t) =
  let max_id =
    List.fold_left (fun acc (d : Data.t) -> max acc d.Data.id) (-1)
      app.Application.data
  in
  let index = Array.make (max_id + 1) None in
  List.iter
    (fun (d : Data.t) -> index.(d.Data.id) <- Some d)
    app.Application.data;
  index

(* Reversed-accumulator buckets: one pass over [app.data] in declaration
   order, so every per-cluster / per-kernel list below keeps the order the
   reference [Info_extractor] filters produce. *)
let bucket_data (app : Application.t) ~kernel_cluster ~n_clusters =
  let n_kernels = Application.n_kernels app in
  let consumed = Array.make n_clusters [] in
  let produced = Array.make n_clusters [] in
  let produced_by_kernel = Array.make n_kernels [] in
  (* [seen.(cid) = i] when object [i] of the pass already joined cluster
     [cid]'s bucket: one array for the whole pass, not one per object *)
  let seen = Array.make n_clusters (-1) in
  List.iteri
    (fun i (d : Data.t) ->
      List.iter
        (fun k ->
          let cid = kernel_cluster.(k) in
          if seen.(cid) <> i then begin
            seen.(cid) <- i;
            consumed.(cid) <- d :: consumed.(cid)
          end)
        d.Data.consumers;
      match d.Data.producer with
      | Data.External -> ()
      | Data.Produced_by k ->
        produced.(kernel_cluster.(k)) <- d :: produced.(kernel_cluster.(k));
        produced_by_kernel.(k) <- d :: produced_by_kernel.(k))
    app.Application.data;
  let rev a = Array.map List.rev a in
  (rev consumed, rev produced, rev produced_by_kernel)

let profile_of_cluster app ~kernel_cluster ~consumed ~produced
    ~produced_by_kernel (c : Cluster.t) =
  let cid = c.Cluster.id in
  let in_cluster kid = kernel_cluster.(kid) = cid in
  let produced_in (d : Data.t) =
    match d.Data.producer with
    | Data.External -> false
    | Data.Produced_by k -> in_cluster k
  in
  let outlives (d : Data.t) =
    (* [produced_in] is implied for members of the produced bucket *)
    d.Data.final
    || List.exists (fun k -> kernel_cluster.(k) > cid) d.Data.consumers
  in
  (* consumers are sorted ascending (Data.make), so the last in-cluster
     consumer is the last in-cluster element of the list *)
  let last_consumer_in (d : Data.t) =
    List.fold_left
      (fun acc k -> if in_cluster k then Some k else acc)
      None d.Data.consumers
  in
  let external_inputs =
    List.filter (fun d -> not (produced_in d)) consumed.(cid)
  in
  let outliving = List.filter outlives produced.(cid) in
  let d_buckets = Hashtbl.create 16 in
  List.iter
    (fun (d : Data.t) ->
      match last_consumer_in d with
      | Some kid ->
        Hashtbl.replace d_buckets kid
          (d :: (try Hashtbl.find d_buckets kid with Not_found -> []))
      | None -> assert false (* consumed in the cluster by construction *))
    external_inputs;
  let kernel_profiles =
    List.map
      (fun kid ->
        let d_objects =
          List.rev (try Hashtbl.find d_buckets kid with Not_found -> [])
        in
        let mine = produced_by_kernel.(kid) in
        let rout_objects = List.filter outlives mine in
        let intermediate_objects =
          List.filter_map
            (fun (d : Data.t) ->
              if outlives d then None
              else
                match last_consumer_in d with
                | Some t -> Some (d, t)
                | None -> None)
            mine
        in
        { IE.kernel = kid; d_objects; rout_objects; intermediate_objects })
      c.Cluster.kernels
  in
  let contexts =
    Msutil.Listx.sum_by
      (fun kid -> (Application.kernel app kid).Kernel.contexts)
      c.Cluster.kernels
  in
  let compute_cycles =
    Msutil.Listx.sum_by
      (fun kid -> (Application.kernel app kid).Kernel.exec_cycles)
      c.Cluster.kernels
  in
  {
    IE.cluster = c;
    kernel_profiles;
    external_inputs;
    outliving;
    contexts;
    compute_cycles;
  }

let sharing_of (app : Application.t) ~kernel_cluster =
  List.filter_map
    (fun (d : Data.t) ->
      let consumer_clusters =
        List.map (fun k -> kernel_cluster.(k)) d.Data.consumers
        |> List.sort_uniq compare
      in
      match d.Data.producer with
      | Data.External ->
        if List.length consumer_clusters >= 2 then
          Some (IE.Shared_data { data = d; consumer_clusters })
        else None
      | Data.Produced_by k ->
        let producer_cluster = kernel_cluster.(k) in
        let later =
          List.filter (fun c -> c <> producer_cluster) consumer_clusters
        in
        if later <> [] then
          Some
            (IE.Shared_result
               { data = d; producer_cluster; consumer_clusters = later })
        else None)
    app.Application.data

let make app clustering =
  (match Cluster.check app clustering with
  | [] -> ()
  | d :: _ -> fail "Analysis.make: %s" (Diag.to_string d));
  let clusters = Array.of_list clustering in
  let kernel_cluster = kernel_cluster_array app clusters in
  let n_clusters = Array.length clusters in
  let consumed, produced, produced_by_kernel =
    bucket_data app ~kernel_cluster ~n_clusters
  in
  let profiles =
    Array.map
      (profile_of_cluster app ~kernel_cluster ~consumed ~produced
         ~produced_by_kernel)
      clusters
  in
  {
    app;
    clustering;
    clusters;
    kernel_cluster;
    data_index = data_index_array app;
    profiles;
    sharing = sharing_of app ~kernel_cluster;
    tds = Application.total_data_words app;
  }

let n_clusters t = Array.length t.clusters

let check_cluster_id t what id =
  if id < 0 || id >= n_clusters t then
    fail "Analysis.%s: bad cluster id %d (have %d clusters)" what id
      (n_clusters t)

let cluster t id =
  check_cluster_id t "cluster" id;
  t.clusters.(id)

let profile t id =
  check_cluster_id t "profile" id;
  t.profiles.(id)

let cluster_id_of_kernel t kid =
  if kid < 0 || kid >= Array.length t.kernel_cluster then
    fail "Analysis.cluster_id_of_kernel: bad kernel id %d" kid;
  t.kernel_cluster.(kid)

let cluster_of_kernel t kid = t.clusters.(cluster_id_of_kernel t kid)

let data t id =
  let bad () = fail "Analysis.data: unknown data id %d" id in
  if id < 0 || id >= Array.length t.data_index then bad ();
  match t.data_index.(id) with Some d -> d | None -> bad ()

let profiles_list t = Array.to_list t.profiles
let sharing t = t.sharing
let tds t = t.tds

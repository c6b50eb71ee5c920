type kernel_profile = {
  kernel : Kernel.id;
  d_objects : Data.t list;
  rout_objects : Data.t list;
  intermediate_objects : (Data.t * Kernel.id) list;
}

type cluster_profile = {
  cluster : Cluster.t;
  kernel_profiles : kernel_profile list;
  external_inputs : Data.t list;
  outliving : Data.t list;
  contexts : int;
  compute_cycles : int;
}

let size_sum = Msutil.Listx.sum_by (fun (d : Data.t) -> d.size)

let d_words p = size_sum p.d_objects
let rout_words p = size_sum p.rout_objects

let intermediate_words p =
  Msutil.Listx.sum_by (fun ((d : Data.t), _) -> d.size) p.intermediate_objects

let produced_in (c : Cluster.t) (d : Data.t) =
  match d.producer with
  | Data.External -> false
  | Data.Produced_by k -> List.mem k c.kernels

let consumed_in (c : Cluster.t) (d : Data.t) =
  List.exists (fun k -> List.mem k c.kernels) d.consumers

let last_consumer_in (c : Cluster.t) (d : Data.t) =
  List.filter (fun k -> List.mem k c.kernels) d.consumers |> Msutil.Listx.last

let outlives clustering (c : Cluster.t) (d : Data.t) =
  produced_in c d
  && (d.final
     || List.exists
          (fun k ->
            let owner = Cluster.cluster_of_kernel clustering k in
            owner.id > c.id)
          d.consumers)

let profile app clustering (c : Cluster.t) =
  let all_data = app.Application.data in
  let external_inputs =
    List.filter (fun d -> consumed_in c d && not (produced_in c d)) all_data
  in
  let outliving = List.filter (outlives clustering c) all_data in
  let kernel_profiles =
    List.map
      (fun kid ->
        let d_objects =
          List.filter
            (fun d -> last_consumer_in c d = Some kid)
            external_inputs
        in
        let produced =
          List.filter
            (fun (d : Data.t) -> d.producer = Data.Produced_by kid)
            all_data
        in
        let rout_objects = List.filter (outlives clustering c) produced in
        let intermediate_objects =
          List.filter_map
            (fun (d : Data.t) ->
              if outlives clustering c d then None
              else
                match last_consumer_in c d with
                | Some t -> Some (d, t)
                | None -> None)
            produced
        in
        { kernel = kid; d_objects; rout_objects; intermediate_objects })
      c.kernels
  in
  let contexts =
    Msutil.Listx.sum_by
      (fun kid -> (Application.kernel app kid).Kernel.contexts)
      c.kernels
  in
  let compute_cycles =
    Msutil.Listx.sum_by
      (fun kid -> (Application.kernel app kid).Kernel.exec_cycles)
      c.kernels
  in
  {
    cluster = c;
    kernel_profiles;
    external_inputs;
    outliving;
    contexts;
    compute_cycles;
  }

let profiles app clustering = List.map (profile app clustering) clustering

type shared =
  | Shared_data of { data : Data.t; consumer_clusters : int list }
  | Shared_result of {
      data : Data.t;
      producer_cluster : int;
      consumer_clusters : int list;
    }

let shared_of_data = function
  | Shared_data { data; _ } | Shared_result { data; _ } -> data

let sharing app clustering =
  List.filter_map
    (fun (d : Data.t) ->
      let consumer_clusters =
        List.map
          (fun k -> (Cluster.cluster_of_kernel clustering k).Cluster.id)
          d.consumers
        |> List.sort_uniq compare
      in
      match d.producer with
      | Data.External ->
        if List.length consumer_clusters >= 2 then
          Some (Shared_data { data = d; consumer_clusters })
        else None
      | Data.Produced_by k ->
        let producer_cluster = (Cluster.cluster_of_kernel clustering k).Cluster.id in
        let later =
          List.filter (fun c -> c <> producer_cluster) consumer_clusters
        in
        if later <> [] then
          Some
            (Shared_result
               { data = d; producer_cluster; consumer_clusters = later })
        else None)
    app.Application.data

let pp_shared fmt = function
  | Shared_data { data; consumer_clusters } ->
    Format.fprintf fmt "D{%s}(%dw) used by Cl%s" data.Data.name data.Data.size
      (String.concat ",Cl" (List.map string_of_int consumer_clusters))
  | Shared_result { data; producer_cluster; consumer_clusters } ->
    Format.fprintf fmt "R{%s}(%dw) Cl%d -> Cl%s" data.Data.name data.Data.size
      producer_cluster
      (String.concat ",Cl" (List.map string_of_int consumer_clusters))

module Fb = Morphosys.Frame_buffer

type t = { id : int; kernels : Kernel.id list; fb_set : Fb.set }
type clustering = t list

let set_of_index i = if i mod 2 = 0 then Fb.Set_a else Fb.Set_b

let check_partition ~n_kernels sizes =
  let err fmt = Diag.v Diag.Invalid_clustering fmt in
  let sum = Msutil.Listx.sum sizes in
  List.filter_map
    (fun s ->
      if s <= 0 then Some (err "non-positive cluster size %d" s) else None)
    sizes
  @
  if sum <> n_kernels then
    [
      err "cluster sizes sum to %d but the application has %d kernels" sum
        n_kernels;
    ]
  else []

let of_partition app sizes =
  (match check_partition ~n_kernels:(Application.n_kernels app) sizes with
  | [] -> ()
  | d :: _ -> invalid_arg ("Cluster.of_partition: " ^ Diag.to_string d));
  let rec loop id start = function
    | [] -> []
    | size :: rest ->
      {
        id;
        kernels = List.init size (fun i -> start + i);
        fb_set = set_of_index id;
      }
      :: loop (id + 1) (start + size) rest
  in
  loop 0 0 sizes

let singleton_per_kernel app =
  of_partition app (List.init (Application.n_kernels app) (fun _ -> 1))

let whole_application app = of_partition app [ Application.n_kernels app ]

let check app clustering =
  let n = Application.n_kernels app in
  let err ?cluster fmt = Diag.v ?cluster Diag.Invalid_clustering fmt in
  let per_cluster i c =
    (if c.id <> i then
       [
         err ~cluster:c.id
           "cluster ids are not consecutive (id %d at position %d)" c.id i;
       ]
     else [])
    @
    if c.fb_set <> set_of_index c.id then
      [
        err ~cluster:c.id "cluster %d breaks the alternating FB-set assignment"
          c.id;
      ]
    else []
  in
  let covered = List.concat_map (fun c -> c.kernels) clustering in
  (if covered <> List.init n Fun.id then
     [ err "clusters do not cover the kernel sequence 0..%d in order" (n - 1) ]
   else [])
  @ List.concat (List.mapi per_cluster clustering)

let cluster_of_kernel_opt clustering kid =
  List.find_opt (fun c -> List.mem kid c.kernels) clustering

let cluster_of_kernel clustering kid =
  match cluster_of_kernel_opt clustering kid with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "Cluster.cluster_of_kernel: kernel %d is in no cluster"
         kid)

let find_opt clustering id = List.find_opt (fun c -> c.id = id) clustering

let find clustering id =
  match find_opt clustering id with
  | Some c -> c
  | None ->
    invalid_arg (Printf.sprintf "Cluster.find: no cluster with id %d" id)

let same_set a b = a.fb_set = b.fb_set
let n_clusters = List.length
let partition_sizes clustering = List.map (fun c -> List.length c.kernels) clustering

let pp fmt t =
  Format.fprintf fmt "Cl%d[%s]@%a" t.id
    (String.concat "," (List.map string_of_int t.kernels))
    Fb.pp_set t.fb_set

let pp_clustering fmt clustering =
  Format.fprintf fmt "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") pp)
    clustering

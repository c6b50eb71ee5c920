type t = {
  name : string;
  kernels : Kernel.t array;
  data : Data.t list;
  iterations : int;
}

let duplicates names =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun name ->
      let dup = Hashtbl.mem seen name in
      Hashtbl.replace seen name ();
      dup)
    names
  |> List.sort_uniq compare

(* Bounds the products with per-transfer costs (see
   [Morphosys.Config.max_quantity]) and the per-iteration work of a build. *)
let max_iterations = 1 lsl 16

let check ~kernels ~data ~iterations =
  let n = List.length kernels in
  let err ?kernel ?data fmt = Diag.v ?kernel ?data Diag.Invalid_app fmt in
  let position i (k : Kernel.t) =
    if k.id <> i then
      [ err ~kernel:k.name "kernel %S has id %d at position %d" k.name k.id i ]
    else []
  in
  let range (d : Data.t) what kid =
    if kid < 0 || kid >= n then
      [
        err ~data:d.name "data %S references unknown %s kernel %d" d.name what
          kid;
      ]
    else []
  in
  List.concat
    [
      (if iterations <= 0 then
         [ err "iterations must be positive (got %d)" iterations ]
       else if iterations > max_iterations then
         [ err "iterations must be at most %d (got %d)" max_iterations iterations ]
       else []);
      (if kernels = [] then [ err "no kernels" ] else []);
      List.concat
        (List.mapi (fun i k -> position i k @ Kernel.check k) kernels);
      List.map
        (fun name -> err ~kernel:name "duplicate kernel name %S" name)
        (duplicates (List.map (fun (k : Kernel.t) -> k.name) kernels));
      List.concat_map
        (fun (d : Data.t) ->
          Data.check d
          @ Option.fold ~none:[] ~some:(range d "producer")
              (Data.producer_kernel d)
          @ List.concat_map (range d "consumer") d.consumers)
        data;
      List.map
        (fun name -> err ~data:name "duplicate data name %S" name)
        (duplicates (List.map (fun (d : Data.t) -> d.name) data));
      List.map
        (fun id -> err "duplicate data id %d" id)
        (duplicates (List.map (fun (d : Data.t) -> d.id) data));
    ]

let make ~name ~kernels ~data ~iterations =
  match check ~kernels ~data ~iterations with
  | d :: _ -> invalid_arg ("Application.make: " ^ Diag.to_string d)
  | [] ->
    let data = List.sort (fun (a : Data.t) b -> compare a.id b.id) data in
    { name; kernels = Array.of_list kernels; data; iterations }

let n_kernels t = Array.length t.kernels

let kernel t id =
  if id < 0 || id >= n_kernels t then
    invalid_arg (Printf.sprintf "Application.kernel: bad id %d" id);
  t.kernels.(id)

let kernel_by_name_opt t name =
  Array.find_opt (fun (k : Kernel.t) -> k.name = name) t.kernels

let kernel_by_name t name =
  match kernel_by_name_opt t name with
  | Some k -> k
  | None ->
    invalid_arg
      (Printf.sprintf "Application.kernel_by_name: no kernel %S in app %S"
         name t.name)

let data_by_name_opt t name =
  List.find_opt (fun (d : Data.t) -> d.name = name) t.data

let data_by_name t name =
  match data_by_name_opt t name with
  | Some d -> d
  | None ->
    invalid_arg
      (Printf.sprintf "Application.data_by_name: no data object %S in app %S"
         name t.name)

let inputs_of t kid = List.filter (fun d -> Data.consumed_by d kid) t.data

let outputs_of t kid =
  List.filter (fun (d : Data.t) -> d.producer = Data.Produced_by kid) t.data

let external_data t = List.filter Data.is_external t.data
let results t = List.filter Data.is_result t.data
let final_results t = List.filter (fun (d : Data.t) -> d.final) t.data

let total_data_words t = Msutil.Listx.sum_by (fun (d : Data.t) -> d.size) t.data

let total_context_words t =
  Array.to_list t.kernels
  |> Msutil.Listx.sum_by (fun (k : Kernel.t) -> k.contexts)

let pp fmt t =
  Format.fprintf fmt "@[<v>app %S (%d iterations)@,kernels:@," t.name
    t.iterations;
  Array.iter (fun k -> Format.fprintf fmt "  %a@," Kernel.pp k) t.kernels;
  Format.fprintf fmt "data:@,";
  List.iter (fun d -> Format.fprintf fmt "  %a@," Data.pp d) t.data;
  Format.fprintf fmt "@]"

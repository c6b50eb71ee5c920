module IE = Kernel_ir.Info_extractor
module Data = Kernel_ir.Data

let is_pinned pinned (d : Data.t) =
  List.exists (fun (p : Data.t) -> p.id = d.id) pinned

let strip_pinned pinned (p : IE.kernel_profile) =
  {
    p with
    IE.d_objects = List.filter (fun d -> not (is_pinned pinned d)) p.IE.d_objects;
  }

let pinned_words pinned =
  Msutil.Listx.sum_by (fun (d : Data.t) -> d.size) pinned

let closed_form ?(pinned = []) (profile : IE.cluster_profile) =
  let kps = List.map (strip_pinned pinned) profile.IE.kernel_profiles in
  let indexed = List.mapi (fun pos p -> (pos, p)) kps in
  let peak_at i =
    let d_part =
      Msutil.Listx.sum_by
        (fun (pos, p) -> if pos >= i then IE.d_words p else 0)
        indexed
    in
    let rout_part =
      Msutil.Listx.sum_by
        (fun (pos, p) -> if pos <= i then IE.rout_words p else 0)
        indexed
    in
    let inter_part =
      Msutil.Listx.sum_by
        (fun (pos, p) ->
          if pos > i then 0
          else
            Msutil.Listx.sum_by
              (fun ((d : Data.t), t) ->
                (* [t] is a kernel id; compare through its position *)
                let t_pos =
                  match
                    Msutil.Listx.index_of
                      (fun k -> k = t)
                      profile.IE.cluster.Kernel_ir.Cluster.kernels
                  with
                  | Some pos -> pos
                  | None -> assert false (* t is in the cluster by construction *)
                in
                if t_pos >= i then d.size else 0)
              p.IE.intermediate_objects)
        indexed
    in
    d_part + rout_part + inter_part
  in
  let n = List.length kps in
  let peaks = List.init n peak_at in
  Msutil.Listx.max_by (fun x -> x) peaks + pinned_words pinned

let by_simulation ?(pinned = []) (profile : IE.cluster_profile) =
  let kps = List.map (strip_pinned pinned) profile.IE.kernel_profiles in
  (* Residency as a running total: start with every cluster input loaded,
     add outputs at each kernel, release after last use. *)
  let initial = Msutil.Listx.sum_by IE.d_words kps in
  let n = List.length kps in
  let kp_at pos = List.nth kps pos in
  let live = ref initial in
  let peak = ref initial in
  for i = 0 to n - 1 do
    let p = kp_at i in
    (* kernel i produces its results *)
    live := !live + IE.rout_words p + IE.intermediate_words p;
    if !live > !peak then peak := !live;
    (* inputs whose last consumer is kernel i die *)
    live := !live - IE.d_words p;
    (* intermediates whose last consumer is kernel i die *)
    let died =
      Msutil.Listx.sum_by
        (fun kp ->
          Msutil.Listx.sum_by
            (fun ((d : Data.t), t) ->
              if t = p.IE.kernel then d.size else 0)
            kp.IE.intermediate_objects)
        kps
    in
    live := !live - died
  done;
  !peak + pinned_words pinned

let split ?(pinned = []) (profile : IE.cluster_profile) =
  let invariant_inputs =
    List.filter (fun (d : Data.t) -> d.Data.invariant) profile.IE.external_inputs
  in
  let invariant_pinned =
    List.filter (fun (d : Data.t) -> d.Data.invariant) pinned
  in
  let constants =
    Msutil.Listx.uniq
      (fun (a : Data.t) b -> a.Data.id = b.Data.id)
      (invariant_inputs @ invariant_pinned)
  in
  let regular_pinned =
    List.filter (fun (d : Data.t) -> not d.Data.invariant) pinned
  in
  let constant_words = pinned_words constants in
  let per_iteration =
    closed_form ~pinned:(constants @ regular_pinned) profile - constant_words
  in
  (per_iteration, constant_words)

type sweep = {
  d_suffix : int array;
  rp_inter : int array;
  constant : int;
  last_use : (int * int) array;
  per_iteration : int;
  footprint : int;
}

type pin = { strip_pos : int; strip : int; constant_add : int; regular_add : int }

let no_pin = { strip_pos = -1; strip = 0; constant_add = 0; regular_add = 0 }

let peak s d_suffix pin =
  let best = ref 0 in
  for i = 0 to Array.length s.rp_inter - 1 do
    let v =
      d_suffix.(i) - (if i <= pin.strip_pos then pin.strip else 0)
      + s.rp_inter.(i)
    in
    if v > !best then best := v
  done;
  !best

(* [peak_at i] of the closed form differs from [peak_at (i-1)] only by
   suffix/prefix sums and by the intermediates whose
   [producer..last-consumer] interval opens or closes at [i], so one pass
   with difference arrays visits every object once instead of once per
   kernel position. Invariant inputs sit in their own suffix: [split]
   charges them once as constants, [closed_form] positionally. *)
let sweep (profile : IE.cluster_profile) =
  let kps = profile.IE.kernel_profiles in
  let n = List.length kps in
  let pos_of = Hashtbl.create (max 8 (n * 2)) in
  List.iteri
    (fun pos k -> Hashtbl.replace pos_of k pos)
    profile.IE.cluster.Kernel_ir.Cluster.kernels;
  let d_suffix = Array.make (n + 1) 0 in
  let inv_suffix = Array.make (n + 1) 0 in
  (* diff.(i) accumulates kernel i's rout words and the intermediates'
     interval openings minus closings; its running sum at position i is
     the rout prefix plus the live intermediate words crossing i *)
  let diff = Array.make (n + 1) 0 in
  let last_use = ref [] in
  List.iteri
    (fun pos (p : IE.kernel_profile) ->
      List.iter
        (fun (d : Data.t) ->
          last_use := (d.Data.id, pos) :: !last_use;
          let a = if d.Data.invariant then inv_suffix else d_suffix in
          a.(pos) <- a.(pos) + d.Data.size)
        p.IE.d_objects;
      diff.(pos) <- diff.(pos) + IE.rout_words p;
      List.iter
        (fun ((d : Data.t), t) ->
          let t_pos =
            match Hashtbl.find_opt pos_of t with
            | Some pos -> pos
            | None -> assert false (* t is in the cluster by construction *)
          in
          diff.(pos) <- diff.(pos) + d.Data.size;
          diff.(t_pos + 1) <- diff.(t_pos + 1) - d.Data.size)
        p.IE.intermediate_objects)
    kps;
  for i = n - 1 downto 0 do
    d_suffix.(i) <- d_suffix.(i) + d_suffix.(i + 1);
    inv_suffix.(i) <- inv_suffix.(i) + inv_suffix.(i + 1)
  done;
  let rp_inter = Array.make n 0 in
  let running = ref 0 and per_iteration = ref 0 and footprint = ref 0 in
  for i = 0 to n - 1 do
    running := !running + diff.(i);
    rp_inter.(i) <- !running;
    let v = d_suffix.(i) + rp_inter.(i) in
    if v > !per_iteration then per_iteration := v;
    if v + inv_suffix.(i) > !footprint then footprint := v + inv_suffix.(i)
  done;
  let last_use = Array.of_list !last_use in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) last_use;
  {
    d_suffix;
    rp_inter;
    constant = inv_suffix.(0);
    last_use;
    per_iteration = !per_iteration;
    footprint = !footprint;
  }

(* The position of [id]'s last in-cluster consumer, if it is an input *)
let last_use_of s id =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let k, pos = s.last_use.(mid) in
      if k = id then Some pos
      else if k < id then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length s.last_use)

(* A pinned object is never one of the cluster's intermediates, nor its
   rout ([Sharing.pins_cluster] excludes the producer). So it is either a
   cluster input, whose words leave the d-suffix up to its last consumer,
   or unused here; either way its words join a pinned sum, except an
   invariant input's, which the constant charges already. *)
let pin s (d : Data.t) =
  match (last_use_of s d.Data.id, d.Data.invariant) with
  | Some _, true -> no_pin
  | None, true -> { no_pin with constant_add = d.Data.size }
  | Some pos, false ->
    { no_pin with strip_pos = pos; strip = d.Data.size; regular_add = d.Data.size }
  | None, false -> { no_pin with regular_add = d.Data.size }

let footprint_basic (profile : IE.cluster_profile) =
  let inputs =
    Msutil.Listx.sum_by
      (fun (d : Data.t) -> d.size)
      profile.IE.external_inputs
  in
  let produced =
    Msutil.Listx.sum_by
      (fun p -> IE.rout_words p + IE.intermediate_words p)
      profile.IE.kernel_profiles
  in
  inputs + produced

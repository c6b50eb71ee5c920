module Cluster = Kernel_ir.Cluster
module Application = Kernel_ir.Application
module IE = Kernel_ir.Info_extractor

(* Per-cluster facts in ascending id order; [dense] when the ids are
   0..n-1, so that a cluster's id is its index. *)
type index = { dense : bool; words : int array; resident : bool array }

type plan =
  { pinned : int list; reloaded : int list; reserve : int; index : index }

let context_words app (c : Cluster.t) =
  Msutil.Listx.sum_by
    (fun kid -> (Application.kernel app kid).Kernel_ir.Kernel.contexts)
    c.Cluster.kernels

(* Multiset of the rotation's neighbour-pair sums, as counts. *)
module Sums = Map.Make (Int)

let bump d s =
  Sums.update s (fun k ->
      match Option.value k ~default:0 + d with 0 -> None | k -> Some k)

let max_sum sums = fst (Sums.max_binding sums)

(* [ids] and [words] are parallel arrays in clustering order. The unpinned
   clusters form a cyclic list in id order (= execution order), since the
   prefetch of the next cluster overlaps the current one; the CM reserves
   room for the largest pair of neighbours in it (a lone cluster needs only
   its own). Pinning a cluster unlinks it: its two pair sums give way to
   its neighbours' sum, O(log n) on [Sums]. *)
let plan_sizes (config : Morphosys.Config.t) ids words =
  let n = Array.length ids and cap = config.cm_capacity in
  match Array.find_index (fun w -> w > cap) words with
  | Some i ->
    Error
      (Diag.v ~cluster:ids.(i) Diag.Cm_overflow
         "cluster %d needs %d context words but the CM holds only %d" ids.(i)
         words.(i) cap)
  | None ->
    let by_id = Array.init n Fun.id in
    Array.stable_sort (fun a b -> compare ids.(a) ids.(b)) by_id;
    let w = Array.map (Array.get words) by_id in
    let next = Array.init n (fun s -> (s + 1) mod n) in
    let prev = Array.init n (fun s -> (s + n - 1) mod n) in
    let pair s = w.(s) + w.(next.(s)) in
    let sums = ref Sums.empty in
    if n >= 2 then Array.iteri (fun s _ -> sums := bump 1 (pair s) !sums) w;
    let resident = Array.make n false in
    let unpinned = ref n and pinned_words = ref 0 in
    (* Greedy pinning, largest first (equal sizes in clustering order):
       pinning big context sets saves the most reload traffic. *)
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        if w.(a) <> w.(b) then compare w.(b) w.(a)
        else compare by_id.(a) by_id.(b))
      order;
    Array.iter
      (fun s ->
        let p = prev.(s) and q = next.(s) in
        let without =
          if !unpinned < 3 then !sums
          else
            !sums |> bump (-1) (pair s) |> bump (-1) (pair p)
            |> bump 1 (w.(p) + w.(q))
        in
        let reserve =
          match !unpinned with 1 -> 0 | 2 -> w.(q) | _ -> max_sum without
        in
        if !pinned_words + w.(s) + reserve <= cap then begin
          resident.(s) <- true;
          pinned_words := !pinned_words + w.(s);
          decr unpinned;
          sums := without;
          next.(p) <- q;
          prev.(q) <- p
        end)
      order;
    let ids = Array.map (Array.get ids) by_id in
    let pinned, reloaded =
      List.partition (Array.get resident) (List.init n Fun.id)
    in
    Ok
      {
        pinned = List.map (Array.get ids) pinned;
        reloaded = List.map (Array.get ids) reloaded;
        reserve =
          (match reloaded with [] -> 0 | [ s ] -> w.(s) | _ -> max_sum !sums);
        index = { dense = ids = Array.init n Fun.id; words = w; resident };
      }

let plan_app config app clustering =
  let field f = Array.of_list (List.map f clustering) in
  plan_sizes config (field (fun c -> c.Cluster.id)) (field (context_words app))

let plan_of_analysis config (analysis : Kernel_ir.Analysis.t) =
  let field f = Array.map f analysis.Kernel_ir.Analysis.profiles in
  plan_sizes config
    (field (fun p -> p.IE.cluster.Cluster.id))
    (field (fun p -> p.IE.contexts))

(* A validated clustering's ids are 0..n-1: O(1) by index. Other id sets
   fall back to the plan's lists and the application. *)
let load_words_for_round plan ~app ~cluster ~round =
  let { dense; words; resident } = plan.index and id = cluster.Cluster.id in
  if dense && id >= 0 && id < Array.length words then
    if round > 0 && resident.(id) then 0 else words.(id)
  else if round > 0 && List.mem id plan.pinned then 0
  else context_words app cluster

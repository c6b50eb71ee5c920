(* Reference context planner: the original list-based greedy, kept as the
   oracle for [Sched.Context_scheduler]. It recomputes the pinned total and
   the rotation reserve from association lists on every greedy step, which
   makes it cubic in the number of clusters. *)

type plan = { pinned : int list; reloaded : int list; reserve : int }

(* Largest combined context size of two consecutively-executed unpinned
   clusters (including the wrap-around pair), since the prefetch of the next
   cluster overlaps the current one. A single unpinned cluster needs only
   its own space. *)
let rotation_reserve sizes unpinned =
  match unpinned with
  | [] -> 0
  | [ c ] -> List.assoc c sizes
  | _ ->
    let ids = List.sort compare unpinned in
    let pairs =
      (* consecutive in execution order = consecutive ids, cyclically *)
      List.map2
        (fun a b -> List.assoc a sizes + List.assoc b sizes)
        ids
        (Msutil.Listx.drop 1 ids @ [ List.hd ids ])
    in
    Msutil.Listx.max_by (fun x -> x) pairs

let plan_sizes (config : Morphosys.Config.t) sizes =
  match
    List.find_opt (fun (_, w) -> w > config.cm_capacity) sizes
  with
  | Some (id, w) ->
    Error
      (Diag.v ~cluster:id Diag.Cm_overflow
         "cluster %d needs %d context words but the CM holds only %d" id w
         config.cm_capacity)
  | None ->
    (* Greedy pinning, largest first: pinning big context sets saves the
       most reload traffic. *)
    let by_size_desc =
      List.sort (fun (_, a) (_, b) -> compare b a) sizes
    in
    let pinned, unpinned =
      List.fold_left
        (fun (pinned, unpinned) (id, w) ->
          let pinned_words =
            Msutil.Listx.sum_by (fun i -> List.assoc i sizes) pinned
          in
          let remaining = List.filter (fun i -> i <> id) unpinned in
          if
            pinned_words + w + rotation_reserve sizes remaining
            <= config.cm_capacity
          then (id :: pinned, remaining)
          else (pinned, unpinned))
        ([], List.map fst sizes)
        by_size_desc
    in
    Ok
      {
        pinned = List.sort compare pinned;
        reloaded = List.sort compare unpinned;
        reserve = rotation_reserve sizes unpinned;
      }

let plan_app config app clustering =
  plan_sizes config
    (List.map
       (fun c ->
         (c.Kernel_ir.Cluster.id, Sched.Context_scheduler.context_words app c))
       clustering)

let load_words_for_round plan ~app ~cluster ~round =
  let words = Sched.Context_scheduler.context_words app cluster in
  if round = 0 then words
  else if List.mem cluster.Kernel_ir.Cluster.id plan.pinned then 0
  else words

module IE = Kernel_ir.Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data

type decision = {
  retained : Sharing.t list;
  rejected : (Sharing.t * string) list;
  avoided_words_per_iteration : int;
  avoided_transfers_per_iteration : int;
}

let none =
  {
    retained = [];
    rejected = [];
    avoided_words_per_iteration = 0;
    avoided_transfers_per_iteration = 0;
  }

let pinned_for ~retained ~cluster =
  List.filter_map
    (fun (c : Sharing.t) ->
      if
        c.Sharing.set = cluster.Cluster.fb_set
        && Sharing.pins_cluster c ~cluster_id:cluster.Cluster.id
      then Some (Sharing.data c)
      else None)
    retained

type ranking = [ `Tf | `Fifo | `Smallest_first | `Largest_first ]

(* Words of external traffic a retained candidate avoids, averaged per
   iteration. Ordinary shared objects save transfers within every iteration
   (the static [avoided_words]); an invariant table is loaded once for the
   whole run instead of once per consumer cluster per round. *)
let effective_avoided ~rf ~iterations (candidate : Sharing.t) =
  let d = Sharing.data candidate in
  if d.Data.invariant then
    let rounds = (iterations + rf - 1) / rf in
    let loads_without = List.length candidate.Sharing.beneficiaries * rounds in
    d.Data.size * (loads_without - 1) / iterations
  else candidate.Sharing.avoided_words

(* The paper's order: rank by traffic actually avoided at this rf (reduces
   to the TF order when no invariant data is involved). *)
let tf_order ~rf ~iterations ~tds candidates =
  List.stable_sort
    (fun a b ->
      compare
        (effective_avoided ~rf ~iterations b)
        (effective_avoided ~rf ~iterations a))
    (Time_factor.rank ~tds candidates)

let order ranking ~rf ~iterations ~tds candidates =
  let size c = (Sharing.data c).Data.size in
  let data_id c = (Sharing.data c).Data.id in
  match ranking with
  | `Tf -> tf_order ~rf ~iterations ~tds candidates
  | `Fifo ->
    List.sort (fun a b -> compare (data_id a) (data_id b)) candidates
  | `Smallest_first ->
    List.sort (fun a b -> compare (size a, data_id a) (size b, data_id b))
      candidates
  | `Largest_first ->
    List.sort (fun a b -> compare (size b, data_id a) (size a, data_id b))
      candidates

let choose ?(cross_set = false) ?(ranking = `Tf)
    (config : Morphosys.Config.t) app clustering ~rf =
  if rf < 1 then invalid_arg "Retention.choose: rf must be >= 1";
  let iterations = app.Kernel_ir.Application.iterations in
  let profiles = IE.profiles app clustering in
  let profile_of id = List.nth profiles id in
  let tds = Time_factor.tds app in
  let ranked =
    order ranking ~rf ~iterations ~tds
      (Sharing.candidates ~cross_set app clustering)
  in
  let fits retained (candidate : Sharing.t) =
    (* Re-check every same-set cluster the candidate occupies space during
       (its window, or every cluster for an invariant table) with the
       candidate tentatively added to the already-accepted set. *)
    let tentative = candidate :: retained in
    let lo, hi = candidate.Sharing.window in
    let invariant = (Sharing.data candidate).Data.invariant in
    let affected =
      List.filter
        (fun (c : Cluster.t) ->
          c.Cluster.fb_set = candidate.Sharing.set
          && (invariant || (lo <= c.Cluster.id && c.Cluster.id <= hi)))
        clustering
    in
    List.find_map
      (fun (c : Cluster.t) ->
        let pinned = pinned_for ~retained:tentative ~cluster:c in
        let per_iteration, constant =
          Sched.Ds_formula.split ~pinned (profile_of c.Cluster.id)
        in
        if (rf * per_iteration) + constant > config.fb_set_size then
          Some
            (Printf.sprintf
               "cluster %d would need %d x %dw + %dw = %dw > FB set %dw"
               c.Cluster.id rf per_iteration constant
               ((rf * per_iteration) + constant)
               config.fb_set_size)
        else None)
      affected
  in
  let retained, rejected =
    List.fold_left
      (fun (retained, rejected) candidate ->
        match fits retained candidate with
        | None ->
          (candidate :: retained, rejected)
        | Some reason ->
          (retained, (candidate, reason) :: rejected))
      ([], []) ranked
  in
  let retained = List.rev retained in
  {
    retained;
    rejected = List.rev rejected;
    avoided_words_per_iteration =
      Msutil.Listx.sum_by (effective_avoided ~rf ~iterations) retained;
    avoided_transfers_per_iteration =
      Msutil.Listx.sum_by (fun c -> c.Sharing.avoided_transfers) retained;
  }

(* A pinned object occupies a cluster's set for its whole window, so a
   tentative pin's split is an O(cluster kernels) scan of the cluster's
   [Ds_formula.sweep] with the pin's strip applied, with no allocation,
   instead of a from-scratch profile walk. An object's candidates occupy
   disjoint clusters (one FB set each, or one candidate in cross-set
   mode), so a walk pins an object into a cluster at most once, and the
   pin read off the context's sweep is the pin at any point of any walk.
   A walk never changes a sweep: it keeps its own pinned sums and copies
   a cluster's d-suffix the first time it strips it, so the sweeps the
   context holds serve every walk.

   A candidate as every walk reads it. [key] is its walk-order key for
   a non-invariant object ([effective_avoided] at any RF). [affected]
   are the same-set clusters it occupies space during, ascending id — the
   same order [choose]'s filter over the clustering walks them, so a
   rejection reports the same first-failing cluster — and [pins] what
   pinning it does to each. *)
type prepared_candidate = {
  candidate : Sharing.t;
  invariant : bool;
  key : int;
  affected : int array;
  pins : Sched.Ds_formula.pin array;
}

type prepared = {
  iterations : int;
  ranked : prepared_candidate array;  (* Time_factor.rank order *)
  plain : int array;  (* the non-invariant ones, in walk order *)
  invariants : int array;  (* the invariant ones, in rank order *)
  sweeps : Sched.Ds_formula.sweep array;  (* the context's, by cluster id *)
}

let prepare ?(cross_set = false) (ctx : Sched.Sched_ctx.t) =
  let analysis = Sched.Sched_ctx.analysis ctx in
  let n = Kernel_ir.Analysis.n_clusters analysis in
  let sweeps = ctx.Sched.Sched_ctx.sweeps in
  let prepare_one (candidate : Sharing.t) =
    let d = Sharing.data candidate in
    (* an invariant candidate occupies its set for the whole run, any
       other only during its window *)
    let lo, hi =
      if d.Data.invariant then (0, n - 1)
      else
        let lo, hi = candidate.Sharing.window in
        (max lo 0, min hi (n - 1))
    in
    let rec down id acc =
      if id < lo then acc
      else
        down (id - 1)
          (if
             (Kernel_ir.Analysis.cluster analysis id).Cluster.fb_set
             = candidate.Sharing.set
           then id :: acc
           else acc)
    in
    let affected = Array.of_list (down hi []) in
    {
      candidate;
      invariant = d.Data.invariant;
      key = candidate.Sharing.avoided_words;
      affected;
      pins =
        Array.map
          (fun id ->
            if Sharing.pins_cluster candidate ~cluster_id:id then
              Sched.Ds_formula.pin sweeps.(id) d
            else Sched.Ds_formula.no_pin (* a shared result's producer *))
          affected;
    }
  in
  let ranked =
    Time_factor.rank
      ~tds:(Kernel_ir.Analysis.tds analysis)
      (Sharing.candidates_ctx ~cross_set analysis)
    |> List.map prepare_one |> Array.of_list
  in
  let indices keep =
    List.filter (fun i -> keep ranked.(i))
      (List.init (Array.length ranked) Fun.id)
  in
  (* [tf_order]'s stable sort, for the keys that do not depend on RF *)
  let plain =
    List.stable_sort
      (fun i j -> compare ranked.(j).key ranked.(i).key)
      (indices (fun c -> not c.invariant))
  in
  {
    iterations = (Sched.Sched_ctx.app ctx).Kernel_ir.Application.iterations;
    ranked;
    plain = Array.of_list plain;
    invariants = Array.of_list (indices (fun c -> c.invariant));
    sweeps;
  }

let candidates p = Array.map (fun c -> c.candidate) p.ranked

type walk = {
  rf : int;
  fb_set_size : int;
  order : int array;  (* candidate indices in walk order *)
  kept : bool array;  (* by candidate index *)
  refusals : (int * int * int * int) list;
      (* (candidate, cluster, per_iteration, constant), last first *)
}

(* [tf_order] at [rf]: the invariant candidates, ordered by their avoided
   words at [rf], merged into the prepared order of the others. Both runs
   are sorted by (key descending, rank ascending), which is what the
   stable sort of the ranked list yields. *)
let walk_order p ~rf =
  let key i =
    if p.ranked.(i).invariant then
      effective_avoided ~rf ~iterations:p.iterations p.ranked.(i).candidate
    else p.ranked.(i).key
  in
  let inv = Array.copy p.invariants in
  Array.stable_sort (fun i j -> compare (key j) (key i)) inv;
  let np = Array.length p.plain and ni = Array.length inv in
  let before i j = key i > key j || (key i = key j && i < j) in
  let order = Array.make (np + ni) 0 in
  let a = ref 0 and b = ref 0 in
  for k = 0 to np + ni - 1 do
    if !b >= ni || (!a < np && before p.plain.(!a) inv.(!b)) then begin
      order.(k) <- p.plain.(!a);
      incr a
    end
    else begin
      order.(k) <- inv.(!b);
      incr b
    end
  done;
  order

(* The greedy pass at [rf]: each candidate in walk order is kept if every
   affected cluster still fits with it pinned on top of the candidates
   already kept. The walk's pinned sums and stripped d-suffixes are its
   own, by cluster id; a d-suffix is the context's array until the walk
   first strips it. *)
let walk p (config : Morphosys.Config.t) ~rf =
  if rf < 1 then invalid_arg "Retention.choose: rf must be >= 1";
  let fb = config.fb_set_size in
  let n = Array.length p.sweeps in
  let d_suffix =
    Array.map (fun (s : Sched.Ds_formula.sweep) -> s.d_suffix) p.sweeps
  in
  let owned = Array.make n false in
  let const_words =
    Array.map (fun (s : Sched.Ds_formula.sweep) -> s.constant) p.sweeps
  in
  let reg_words = Array.make n 0 in
  (* the split of cluster [id] with [pin] applied on top of the walk so
     far — the same integers [Ds_formula.split] yields for the extended
     pinned list; the walk's own split for a cluster the candidate does
     not pin *)
  let per_iteration id (pin : Sched.Ds_formula.pin) =
    Sched.Ds_formula.peak p.sweeps.(id) d_suffix.(id) pin
    + reg_words.(id) + pin.regular_add
  in
  let constant id (pin : Sched.Ds_formula.pin) =
    const_words.(id) + pin.constant_add
  in
  let commit id (pin : Sched.Ds_formula.pin) =
    if pin.strip_pos >= 0 then begin
      if not owned.(id) then begin
        d_suffix.(id) <- Array.copy d_suffix.(id);
        owned.(id) <- true
      end;
      let a = d_suffix.(id) in
      for i = 0 to pin.strip_pos do
        a.(i) <- a.(i) - pin.strip
      done
    end;
    const_words.(id) <- constant id pin;
    reg_words.(id) <- reg_words.(id) + pin.regular_add
  in
  let kept = Array.make (Array.length p.ranked) false in
  let order = walk_order p ~rf in
  let refusals = ref [] in
  Array.iter
    (fun i ->
      let c = p.ranked.(i) in
      let fits k =
        let id = c.affected.(k) and pin = c.pins.(k) in
        (rf * per_iteration id pin) + constant id pin <= fb
      in
      let rec first_misfit k =
        if k >= Array.length c.affected || not (fits k) then k
        else first_misfit (k + 1)
      in
      let k = first_misfit 0 in
      if k < Array.length c.affected then
        let id = c.affected.(k) and pin = c.pins.(k) in
        refusals :=
          (i, id, per_iteration id pin, constant id pin) :: !refusals
      else begin
        kept.(i) <- true;
        Array.iteri (fun k id -> commit id c.pins.(k)) c.affected
      end)
    order;
  { rf; fb_set_size = fb; order; kept; refusals = !refusals }

let kept w i = w.kept.(i)

let decision p w =
  let candidate i = p.ranked.(i).candidate in
  let retained =
    Array.fold_right
      (fun i acc -> if w.kept.(i) then candidate i :: acc else acc)
      w.order []
  in
  let rf = w.rf in
  {
    retained;
    rejected =
      List.rev_map
        (fun (i, id, per_iteration, constant) ->
          ( candidate i,
            Printf.sprintf
              "cluster %d would need %d x %dw + %dw = %dw > FB set %dw" id rf
              per_iteration constant
              ((rf * per_iteration) + constant)
              w.fb_set_size ))
        w.refusals;
    avoided_words_per_iteration =
      Msutil.Listx.sum_by
        (effective_avoided ~rf ~iterations:p.iterations)
        retained;
    avoided_transfers_per_iteration =
      Msutil.Listx.sum_by (fun c -> c.Sharing.avoided_transfers) retained;
  }

let choose_ctx ?cross_set config ctx ~rf =
  let p = prepare ?cross_set ctx in
  decision p (walk p config ~rf)

let pp_decision fmt t =
  Format.fprintf fmt "@[<v>retained (%d, avoiding %dw/iter):@,"
    (List.length t.retained) t.avoided_words_per_iteration;
  List.iter (fun c -> Format.fprintf fmt "  + %a@," Sharing.pp c) t.retained;
  List.iter
    (fun (c, reason) ->
      Format.fprintf fmt "  - %a [%s]@," Sharing.pp c reason)
    t.rejected;
  Format.fprintf fmt "@]"

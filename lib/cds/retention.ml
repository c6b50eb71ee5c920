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

(* Per-cluster incremental DS-split state. A pinned object is always a
   cluster *input* over the affected window — never one of the cluster's
   intermediates, and never the producer's own rout (pins_cluster excludes
   the producer) — so pinning only (a) removes the object's words from the
   d-suffix term of the closed-form peak at its last-consumer position and
   (b) adds them to the constant or regular pinned sum. Keeping the sweep
   arrays of [Ds_formula.closed_form_fast] per cluster therefore turns a
   tentative-pin split query into an O(cluster kernels) scan with no
   allocation, instead of a from-scratch profile walk. *)
type cluster_state = {
  nk : int;
  rp_inter : int array;
      (* rout prefix + live intermediate words, by kernel position *)
  d_suffix : int array;  (* suffix sums of unstripped d_object words *)
  last_pos : (int, int) Hashtbl.t;  (* input id -> last consumer position *)
  stripped : (int, unit) Hashtbl.t;  (* ids removed from [d_suffix] *)
  const_ids : (int, unit) Hashtbl.t;  (* the deduped constants set *)
  mutable const_words : int;
  mutable reg_words : int;  (* regular pinned words (list sum) *)
}

let cluster_state_of (profile : IE.cluster_profile) =
  let kps = profile.IE.kernel_profiles in
  let nk = List.length kps in
  let pos_of = Hashtbl.create (max 8 (nk * 2)) in
  List.iteri
    (fun pos k -> Hashtbl.replace pos_of k pos)
    profile.IE.cluster.Cluster.kernels;
  let last_pos = Hashtbl.create 16 in
  let stripped = Hashtbl.create 8 in
  let const_ids = Hashtbl.create 8 in
  let const_words = ref 0 in
  let d_arr = Array.make (nk + 1) 0 in
  let rout = Array.make (nk + 1) 0 in
  let diff = Array.make (nk + 1) 0 in
  List.iteri
    (fun pos (p : IE.kernel_profile) ->
      List.iter
        (fun (d : Data.t) ->
          Hashtbl.replace last_pos d.Data.id pos;
          if d.Data.invariant then begin
            (* invariant inputs are constants from the start: stripped from
               the per-iteration peak, charged once as constant words *)
            Hashtbl.replace stripped d.Data.id ();
            if not (Hashtbl.mem const_ids d.Data.id) then begin
              Hashtbl.add const_ids d.Data.id ();
              const_words := !const_words + d.Data.size
            end
          end
          else d_arr.(pos) <- d_arr.(pos) + d.Data.size)
        p.IE.d_objects;
      rout.(pos) <- IE.rout_words p;
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
  for i = nk - 1 downto 0 do
    d_arr.(i) <- d_arr.(i) + d_arr.(i + 1)
  done;
  let rp_inter = Array.make (nk + 1) 0 in
  let rout_prefix = ref 0 and inter = ref 0 in
  for i = 0 to nk - 1 do
    rout_prefix := !rout_prefix + rout.(i);
    inter := !inter + diff.(i);
    rp_inter.(i) <- !rout_prefix + !inter
  done;
  {
    nk;
    rp_inter;
    d_suffix = d_arr;
    last_pos;
    stripped;
    const_ids;
    const_words = !const_words;
    reg_words = 0;
  }

(* Peak of the per-iteration residency, optionally with [delta] words
   removed from positions [<= delta_pos] (the tentative strip). *)
let peak st ~delta_pos ~delta =
  let best = ref 0 in
  for i = 0 to st.nk - 1 do
    let v =
      st.d_suffix.(i) - (if i <= delta_pos then delta else 0) + st.rp_inter.(i)
    in
    if v > !best then best := v
  done;
  !best

let strip_of st (d : Data.t) =
  match Hashtbl.find_opt st.last_pos d.Data.id with
  | Some p when not (Hashtbl.mem st.stripped d.Data.id) -> (p, d.Data.size)
  | _ -> (-1, 0)

let current_split st =
  (peak st ~delta_pos:(-1) ~delta:0 + st.reg_words, st.const_words)

(* (per_iteration, constant) if [d] were pinned on top of the current
   state — the same integers [Ds_formula.split] yields for the extended
   pinned list. *)
let tentative_split st (d : Data.t) =
  let delta_pos, delta = strip_of st d in
  if d.Data.invariant then
    let const =
      if Hashtbl.mem st.const_ids d.Data.id then st.const_words
      else st.const_words + d.Data.size
    in
    (peak st ~delta_pos ~delta + st.reg_words, const)
  else (peak st ~delta_pos ~delta + st.reg_words + d.Data.size, st.const_words)

let commit_pin st (d : Data.t) =
  (match strip_of st d with
  | -1, _ -> ()
  | p, size ->
    Hashtbl.add st.stripped d.Data.id ();
    for i = 0 to p do
      st.d_suffix.(i) <- st.d_suffix.(i) - size
    done);
  if d.Data.invariant then begin
    if not (Hashtbl.mem st.const_ids d.Data.id) then begin
      Hashtbl.add st.const_ids d.Data.id ();
      st.const_words <- st.const_words + d.Data.size
    end
  end
  else st.reg_words <- st.reg_words + d.Data.size

(* Indexed variant of [choose]. Equivalent decision (same retained /
   rejected lists, same reason strings), but the feasibility check runs on
   the incremental per-cluster state above instead of re-deriving every
   affected cluster's pinned set and DS split from scratch per candidate.
   Rejected candidates never touch the state, so cached splits stay
   exact. *)
let choose_ctx ?(cross_set = false)
    (config : Morphosys.Config.t) (ctx : Sched.Sched_ctx.t) ~rf =
  if rf < 1 then invalid_arg "Retention.choose: rf must be >= 1";
  let analysis = Sched.Sched_ctx.analysis ctx in
  let app = Sched.Sched_ctx.app ctx in
  let iterations = app.Kernel_ir.Application.iterations in
  let tds = Kernel_ir.Analysis.tds analysis in
  let ranked =
    tf_order ~rf ~iterations ~tds (Sharing.candidates_ctx ~cross_set analysis)
  in
  let n = Kernel_ir.Analysis.n_clusters analysis in
  let states =
    Array.init n (fun id ->
        cluster_state_of (Kernel_ir.Analysis.profile analysis id))
  in
  (* Same-set clusters the candidate occupies space during, ascending id —
     the same order [choose]'s filter over the clustering walks them, so a
     rejection reports the same first-failing cluster. An invariant
     candidate occupies its set for the whole run, any other only during
     its window. *)
  let affected_ids (candidate : Sharing.t) =
    let lo, hi =
      if (Sharing.data candidate).Data.invariant then (0, n - 1)
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
    down hi []
  in
  let fits (candidate : Sharing.t) ids =
    let d = Sharing.data candidate in
    List.find_map
      (fun id ->
        let per_iteration, constant =
          if Sharing.pins_cluster candidate ~cluster_id:id then
            tentative_split states.(id) d
          else current_split states.(id)
        in
        if (rf * per_iteration) + constant > config.fb_set_size then
          Some
            (Printf.sprintf
               "cluster %d would need %d x %dw + %dw = %dw > FB set %dw" id
               rf per_iteration constant
               ((rf * per_iteration) + constant)
               config.fb_set_size)
        else None)
      ids
  in
  let accept (candidate : Sharing.t) ids =
    let d = Sharing.data candidate in
    List.iter
      (fun id ->
        if Sharing.pins_cluster candidate ~cluster_id:id then
          commit_pin states.(id) d)
      ids
  in
  let retained, rejected =
    List.fold_left
      (fun (retained, rejected) candidate ->
        let ids = affected_ids candidate in
        match fits candidate ids with
        | None ->
          accept candidate ids;
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

let pp_decision fmt t =
  Format.fprintf fmt "@[<v>retained (%d, avoiding %dw/iter):@,"
    (List.length t.retained) t.avoided_words_per_iteration;
  List.iter (fun c -> Format.fprintf fmt "  + %a@," Sharing.pp c) t.retained;
  List.iter
    (fun (c, reason) ->
      Format.fprintf fmt "  - %a [%s]@," Sharing.pp c reason)
    t.rejected;
  Format.fprintf fmt "@]"

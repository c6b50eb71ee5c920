module IE = Kernel_ir.Info_extractor
module Cluster = Kernel_ir.Cluster
module Data = Kernel_ir.Data
module Fb = Morphosys.Frame_buffer
module Layout = Fb_alloc.Layout
module Free_list = Fb_alloc.Free_list

type snapshot = { caption : string; cells : string option array }

type result = {
  snapshots : snapshot list;
  stats : (Fb.set * Fb_alloc.Frag_stats.t) list;
  splits : int;
  peak_words : (int * int) list;
  failures : string list;
}

type state = {
  layout_a : Layout.t;
  layout_b : Layout.t;
  retained : Sharing.t list;
  mutable snapshots : snapshot list;
  mutable failures : string list;
  mutable peaks : (int * int) list;
}

let layout state = function
  | Fb.Set_a -> state.layout_a
  | Fb.Set_b -> state.layout_b

let label = Sched.Schedule.instance_label

let snap state set caption =
  state.snapshots <-
    { caption; cells = Layout.snapshot (layout state set) } :: state.snapshots

let place state set ~name ~g ~words ~from =
  let lay = layout state set in
  let lbl = label name ~iter:g in
  if not (Layout.placed lay ~label:lbl) then
    match Layout.place lay ~label:lbl ~words ~from with
    | Some (_ : Layout.placement) -> ()
    | None -> state.failures <- lbl :: state.failures

let release_if_placed state set ~name ~g =
  let lay = layout state set in
  let lbl = label name ~iter:g in
  if Layout.placed lay ~label:lbl then Layout.release lay ~label:lbl

(* Does some retained candidate keep this object in [set] beyond cluster
   [cid]? Then its space must not be released yet. *)
let pinned_beyond state set ~cid (name : string) app =
  match Kernel_ir.Application.data_by_name_opt app name with
  | None -> false
  | Some d ->
    List.exists
      (fun (c : Sharing.t) ->
        c.Sharing.set = set
        && (Sharing.data c).Data.id = d.Data.id
        && snd c.Sharing.window > cid)
      state.retained

let is_retained state (d : Data.t) set =
  List.exists
    (fun (c : Sharing.t) ->
      c.Sharing.set = set && (Sharing.data c).Data.id = d.Data.id)
    state.retained

let run ?(capture = fun ~cluster_id:_ -> true) (config : Morphosys.Config.t)
    ~(analysis : Kernel_ir.Analysis.t) ~rf ~(retention : Retention.decision)
    ~round =
  if rf < 1 then invalid_arg "Allocation_algorithm.run: rf must be >= 1";
  if round < 0 then invalid_arg "Allocation_algorithm.run: negative round";
  let state =
    {
      layout_a = Layout.create ~size:config.fb_set_size;
      layout_b = Layout.create ~size:config.fb_set_size;
      retained = retention.Retention.retained;
      snapshots = [];
      failures = [];
      peaks = [];
    }
  in
  let base = round * rf in
  let iters_of (d : Data.t) =
    if d.Data.invariant then [ 0 ] else List.init rf (fun i -> base + i)
  in
  let iters g_fun = List.iter g_fun (List.init rf (fun i -> base + i)) in
  let app = analysis.Kernel_ir.Analysis.app in
  List.iter
    (fun (prof : IE.cluster_profile) ->
      let c = prof.IE.cluster in
      let cid = c.Cluster.id in
      let set = c.Cluster.fb_set in
      let lay = layout state set in
      let cap = capture ~cluster_id:cid in
      let peak = ref (Layout.size lay - Layout.free_words lay) in
      let track () =
        peak := max !peak (Layout.size lay - Layout.free_words lay)
      in
      if cap then snap state set (Printf.sprintf "pre-Cl%d" cid);
      (* 1. Shared data this cluster loads and later clusters reuse:
            longest retention window first, upper addresses. *)
      let shared_here =
        List.filter
          (fun (cand : Sharing.t) ->
            cand.Sharing.set = set
            && cand.Sharing.first_cluster = cid
            &&
            match cand.Sharing.shared with
            | IE.Shared_data _ -> true
            | IE.Shared_result _ -> false)
          state.retained
        |> List.sort (fun a b ->
               compare (snd b.Sharing.window) (snd a.Sharing.window))
      in
      List.iter
        (fun (cand : Sharing.t) ->
          let d = Sharing.data cand in
          List.iter
            (fun g ->
              place state set ~name:d.Data.name ~g ~words:d.Data.size
                ~from:Free_list.Upper)
            (iters_of d))
        shared_here;
      (* 2. The cluster's remaining input data: inputs of later kernels
            first (they stay longest), upper addresses. Objects already
            resident (retained by an earlier cluster) are skipped. *)
      List.iter
        (fun (kp : IE.kernel_profile) ->
          List.iter
            (fun (d : Data.t) ->
              List.iter
                (fun g ->
                  place state set ~name:d.Data.name ~g ~words:d.Data.size
                    ~from:Free_list.Upper)
                (iters_of d))
            kp.IE.d_objects)
        (List.rev prof.IE.kernel_profiles);
      track ();
      if cap then snap state set (Printf.sprintf "Cl%d-load" cid);
      (* 3. Execute kernels (kernel-major: each kernel runs its RF
            iterations consecutively), placing results and releasing dead
            objects after every execution. *)
      List.iter
        (fun (kp : IE.kernel_profile) ->
          let kname = (Kernel_ir.Application.kernel app kp.IE.kernel).name in
          iters (fun g ->
              (* results that outlive the cluster: retained shared results
                 to the upper region, stored results to the lower region *)
              List.iter
                (fun (d : Data.t) ->
                  let from =
                    if is_retained state d set then Free_list.Upper
                    else Free_list.Lower
                  in
                  place state set ~name:d.Data.name ~g ~words:d.Data.size ~from)
                kp.IE.rout_objects;
              (* intermediates: farthest consumer first, lower region *)
              List.iter
                (fun ((d : Data.t), _) ->
                  place state set ~name:d.Data.name ~g ~words:d.Data.size
                    ~from:Free_list.Lower)
                (List.sort
                   (fun (_, t1) (_, t2) -> compare t2 t1)
                   kp.IE.intermediate_objects);
              track ();
              (* release: inputs whose last consumer this kernel is (an
                 invariant table has one shared copy, freed after the
                 kernel's final iteration of the round) *)
              List.iter
                (fun (d : Data.t) ->
                  if not (pinned_beyond state set ~cid d.Data.name app) then
                    if d.Data.invariant then begin
                      if g = base + rf - 1 then
                        release_if_placed state set ~name:d.Data.name ~g:0
                    end
                    else release_if_placed state set ~name:d.Data.name ~g)
                kp.IE.d_objects;
              (* release: intermediates this kernel consumed last *)
              List.iter
                (fun (other : IE.kernel_profile) ->
                  List.iter
                    (fun ((d : Data.t), t) ->
                      if t = kp.IE.kernel then
                        release_if_placed state set ~name:d.Data.name ~g)
                    other.IE.intermediate_objects)
                prof.IE.kernel_profiles;
              if cap then
                snap state set (Printf.sprintf "Cl%d-%s#%d" cid kname g)))
        prof.IE.kernel_profiles;
      (* 4. End of cluster: outliving results are drained to external
            memory and everything not retained for a later cluster is
            released. *)
      List.iter
        (fun (p : Layout.placement) ->
          match Sched.Schedule.parse_label p.Layout.label with
          | Some (name, g) when g >= base && g < base + rf ->
            if not (pinned_beyond state set ~cid name app) then
              Layout.release lay ~label:p.Layout.label
          | Some _ | None -> ())
        (Layout.placements lay);
      state.peaks <- (cid, !peak) :: state.peaks;
      if cap then snap state set (Printf.sprintf "post-Cl%d" cid))
    (Kernel_ir.Analysis.profiles_list analysis);
  {
    snapshots = List.rev state.snapshots;
    stats =
      [
        (Fb.Set_a, Fb_alloc.Frag_stats.of_layout state.layout_a);
        (Fb.Set_b, Fb_alloc.Frag_stats.of_layout state.layout_b);
      ];
    splits = Layout.splits state.layout_a + Layout.splits state.layout_b;
    peak_words = List.rev state.peaks;
    failures = List.rev state.failures;
  }

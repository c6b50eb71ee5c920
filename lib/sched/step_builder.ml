module Cluster = Kernel_ir.Cluster
module Application = Kernel_ir.Application
module Dma = Morphosys.Dma
module Fb = Morphosys.Frame_buffer

type generators = {
  loads :
    Cluster.t -> round:int -> iters:int -> base_iter:int -> Dma.t list;
  stores :
    Cluster.t -> round:int -> iters:int -> base_iter:int -> Dma.t list;
}

(* The object-level view behind a [generators]: which data objects a
   cluster loads / stores in a given round. The transfer lists are derived
   mechanically from these (one instance per iteration, one for an
   invariant object), so a cost can be computed from the objects alone
   without materialising labelled transfers — see [estimate]. *)
type selectors = {
  load_objects : Cluster.t -> round:int -> Kernel_ir.Data.t list;
  store_objects : Cluster.t -> round:int -> Kernel_ir.Data.t list;
}

type execution = {
  cluster : Cluster.t;
  round : int;
  iters : int;
  base_iter : int;
}

let executions app clustering ~rf =
  let n = app.Application.iterations in
  let total_rounds = (n + rf - 1) / rf in
  List.concat_map
    (fun round ->
      let base_iter = round * rf in
      let iters = min rf (n - base_iter) in
      List.map (fun cluster -> { cluster; round; iters; base_iter }) clustering)
    (List.init total_rounds (fun r -> r))

(* A transfer may overlap a computation on [set] unless it reads or writes
   that same FB set; context loads go to the CM and always overlap. *)
let can_overlap ~computing_set (tr : Dma.t) =
  match tr.Dma.kind with
  | Dma.Context -> true
  | Dma.Data { set; _ } -> set <> computing_set

let compute_cycles config app (e : execution) =
  let per_iter =
    Msutil.Listx.sum_by
      (fun kid -> (Application.kernel app kid).Kernel_ir.Kernel.exec_cycles)
      e.cluster.Cluster.kernels
  in
  (* one context broadcast per kernel per round (loop fission lets each
     kernel keep its configuration for all the round's iterations) *)
  let reconfig =
    Msutil.Listx.sum_by
      (fun kid ->
        Morphosys.Rc_array.reconfigure_cycles config
          ~contexts:(Application.kernel app kid).Kernel_ir.Kernel.contexts)
      e.cluster.Cluster.kernels
  in
  (e.iters * per_iter) + reconfig

let build ?(cross_set = false) config app clustering ~rf ~ctx_plan ~generators
    ~scheduler =
  if rf < 1 then invalid_arg "Step_builder.build: rf must be >= 1";
  let execs = Array.of_list (executions app clustering ~rf) in
  let s_max = Array.length execs in
  let loads_of s =
    if s >= s_max then []
    else
      let e = execs.(s) in
      generators.loads e.cluster ~round:e.round ~iters:e.iters
        ~base_iter:e.base_iter
  in
  let stores_of s =
    if s < 0 || s >= s_max then []
    else
      let e = execs.(s) in
      generators.stores e.cluster ~round:e.round ~iters:e.iters
        ~base_iter:e.base_iter
  in
  let ctx_of s =
    if s >= s_max then []
    else
      let e = execs.(s) in
      let words =
        Context_scheduler.load_words_for_round ctx_plan ~app ~cluster:e.cluster
          ~round:e.round
      in
      if words = 0 then []
      else
        [
          Dma.context_load
            ~kernel:(Printf.sprintf "Cl%d" e.cluster.Cluster.id)
            ~words;
        ]
  in
  let steps = ref [] in
  let emit step = steps := step :: !steps in
  (* Priming step: everything execution 0 needs, nothing to overlap with. *)
  emit
    {
      Schedule.compute = None;
      dma = ctx_of 0 @ loads_of 0;
      note = "prime first cluster";
    };
  for s = 0 to s_max - 1 do
    let e = execs.(s) in
    let prep = stores_of (s - 1) @ loads_of (s + 1) @ ctx_of (s + 1) in
    let overlapped, deferred =
      List.partition (can_overlap ~computing_set:e.cluster.Cluster.fb_set) prep
    in
    emit
      {
        Schedule.compute =
          Some
            {
              Schedule.cluster = e.cluster;
              round = e.round;
              iterations = e.iters;
              compute_cycles = compute_cycles config app e;
            };
        dma = overlapped;
        note = "";
      };
    if deferred <> [] then
      emit
        { Schedule.compute = None; dma = deferred; note = "set conflict stall" }
  done;
  (* Drain: results of the last execution. *)
  let final_stores = stores_of (s_max - 1) in
  if final_stores <> [] then
    emit { Schedule.compute = None; dma = final_stores; note = "final drain" };
  {
    Schedule.scheduler;
    app;
    clustering;
    rf;
    cross_set;
    steps = List.rev !steps;
  }

(* Exactly [Schedule_cost.estimate config (build ... ~generators)] for the
   generators derived from [selectors], computed from per-execution
   (cost, transfer-count) aggregates: an object contributes one instance
   per iteration of the round (one total when invariant), and every
   instance costs [dma_setup + words * per-word]. Replicates [build]'s step
   structure — prime, per-execution overlap/stall partition, final drain —
   without materialising any transfer list, so scheduler RF searches can
   rank every candidate factor and build only the winner. *)
let estimate (config : Morphosys.Config.t) app clustering ~rf ~ctx_plan
    ~selectors =
  if rf < 1 then invalid_arg "Step_builder.estimate: rf must be >= 1";
  let execs = Array.of_list (executions app clustering ~rf) in
  let s_max = Array.length execs in
  let data_cost words =
    config.Morphosys.Config.dma_setup_cycles
    + (words * config.Morphosys.Config.data_cycles_per_word)
  in
  let agg objects ~iters =
    List.fold_left
      (fun (cost, count) (d : Kernel_ir.Data.t) ->
        let inst = if d.Kernel_ir.Data.invariant then 1 else iters in
        (cost + (inst * data_cost d.Kernel_ir.Data.size), count + inst))
      (0, 0) objects
  in
  let loads =
    Array.map
      (fun e -> agg (selectors.load_objects e.cluster ~round:e.round) ~iters:e.iters)
      execs
  in
  let stores =
    Array.map
      (fun e ->
        agg (selectors.store_objects e.cluster ~round:e.round) ~iters:e.iters)
      execs
  in
  let ctx =
    Array.map
      (fun e ->
        let words =
          Context_scheduler.load_words_for_round ctx_plan ~app
            ~cluster:e.cluster ~round:e.round
        in
        if words = 0 then (0, 0)
        else
          ( config.Morphosys.Config.dma_setup_cycles
            + (words * config.Morphosys.Config.context_cycles_per_word),
            1 ))
      execs
  in
  let get arr s = if s < 0 || s >= s_max then (0, 0) else arr.(s) in
  let set_of s = execs.(s).cluster.Cluster.fb_set in
  (* prime step: pure DMA, nothing to overlap with *)
  let total = ref (fst (get ctx 0) + fst (get loads 0)) in
  for s = 0 to s_max - 1 do
    let set = set_of s in
    let ov = ref (fst (get ctx (s + 1))) in
    let def_cost = ref 0 and def_count = ref 0 in
    let route (cost, count) ~conflicts =
      if conflicts then begin
        def_cost := !def_cost + cost;
        def_count := !def_count + count
      end
      else ov := !ov + cost
    in
    route (get stores (s - 1)) ~conflicts:(s - 1 >= 0 && set_of (s - 1) = set);
    route (get loads (s + 1)) ~conflicts:(s + 1 < s_max && set_of (s + 1) = set);
    total := !total + max !ov (compute_cycles config app execs.(s));
    if !def_count > 0 then total := !total + !def_cost
  done;
  let drain_cost, drain_count = get stores (s_max - 1) in
  if drain_count > 0 then total := !total + drain_cost;
  !total

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

let instances ~objects ~iters ~base_iter f =
  List.concat_map
    (fun (d : Kernel_ir.Data.t) ->
      if d.Kernel_ir.Data.invariant then
        (* one constant copy serves every iteration of the round *)
        [ f ~label:(Schedule.instance_label d.name ~iter:0) ~words:d.size ]
      else
        List.init iters (fun i ->
            f ~label:(Schedule.instance_label d.name ~iter:(base_iter + i))
              ~words:d.size))
    objects

(* Every generator is the mechanical expansion of a [selectors] — same
   object choice, one labelled transfer per instance — so the selectors
   stay the single source of truth for both the transfer lists and the
   cheap cost estimates. *)
let generators_of_selectors sel =
  {
    loads =
      (fun c ~round ~iters ~base_iter ->
        instances ~objects:(sel.load_objects c ~round) ~iters ~base_iter
          (Dma.data_load ~set:c.Cluster.fb_set));
    stores =
      (fun c ~round ~iters ~base_iter ->
        instances ~objects:(sel.store_objects c ~round) ~iters ~base_iter
          (Dma.data_store ~set:c.Cluster.fb_set));
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

type 'a policy = {
  name : string;
  cross_set : bool;
  rf_bound : Sched_ctx.t -> Morphosys.Config.t -> (int, Diag.t) result;
  selectors : Sched_ctx.t -> Morphosys.Config.t -> rf:int -> 'a * selectors;
}

let log_src = Logs.Src.create "sched" ~doc:"Scheduler RF choices"

module Log = (val Logs.src_log log_src)

(* The one scheduler driver: context plan, the policy's RF bound, the
   fastest RF by [estimate] (ties go to the larger RF, which frees more CM
   bandwidth; the largest memory-allowed RF is not always fastest, since
   batching RF iterations of transfers can exceed what an imbalanced
   pipeline hides), then a single [build] of the winner. *)
let search policy ctx config =
  match Engine.Faults.hit "sched" with
  | exception Engine.Faults.Injected site ->
    Error
      (Diag.v ~scheduler:policy.name Diag.Fault_injected
         "injected fault at scheduler entry (%s)" site)
  | () ->
    let ( let* ) = Result.bind in
    let tagged r = Result.map_error (Diag.with_scheduler policy.name) r in
    let app = Sched_ctx.app ctx and clustering = Sched_ctx.clustering ctx in
    let* ctx_plan =
      tagged (Context_scheduler.plan_of_analysis config (Sched_ctx.analysis ctx))
    in
    let* rf_max = tagged (policy.rf_bound ctx config) in
    let candidate rf = (rf, policy.selectors ctx config ~rf) in
    let rf, (payload, selectors) =
      if rf_max = 1 then candidate 1
      else
        let best = ref None in
        for rf = 1 to rf_max do
          let ((_, (_, selectors)) as cand) = candidate rf in
          let cycles =
            estimate config app clustering ~rf ~ctx_plan ~selectors
          in
          match !best with
          | Some (_, best_cycles) when best_cycles < cycles -> ()
          | _ -> best := Some (cand, cycles)
        done;
        let ((rf, _) as cand), cycles = Option.get !best in
        Log.debug (fun m ->
            m "%s: chose rf=%d (%d cycles) out of rf_max=%d" policy.name rf
              cycles rf_max);
        cand
    in
    Ok
      ( build ~cross_set:policy.cross_set config app clustering ~rf ~ctx_plan
          ~generators:(generators_of_selectors selectors)
          ~scheduler:policy.name,
        payload )

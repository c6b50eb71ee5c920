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

(* One labelled transfer per instance, object by object and iteration by
   iteration, made in one pass: each object's instances are consed onto
   the transfers of the objects after it, so no per-object list is built
   and then concatenated, and no closure is made per object. *)
let rec instances ~objects ~iters ~base_iter f =
  match objects with
  | [] -> []
  | (d : Kernel_ir.Data.t) :: rest ->
    let tail = instances ~objects:rest ~iters ~base_iter f in
    if d.Kernel_ir.Data.invariant then
      (* one constant copy serves every iteration of the round *)
      f ~label:(Schedule.instance_label d.name ~iter:0) ~words:d.size :: tail
    else expand f d ~first:base_iter (base_iter + iters - 1) tail

(* [d]'s instances [first..iter] consed onto [acc], last first. *)
and expand f (d : Kernel_ir.Data.t) ~first iter acc =
  if iter < first then acc
  else
    expand f d ~first (iter - 1)
      (f ~label:(Schedule.instance_label d.name ~iter) ~words:d.size :: acc)

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

(* The pipeline runs rounds x clusters: execution [s] is cluster
   [s mod n] of the clustering on round [s / n], for RF iterations (fewer
   in the last round) from iteration [round * rf]. A cluster's compute
   cycles per iteration and per round are summed once here, not once per
   execution. *)
type pipeline = {
  clusters : Cluster.t array;  (** in clustering order *)
  iterations : int;  (** of the application *)
  rf : int;
  s_max : int;  (** number of executions *)
  per_iter : int array;  (** per cluster: RC-array cycles of one iteration *)
  reconfig : int array;  (** per cluster: context broadcasts of one round *)
}

let pipeline config app clustering ~rf =
  let clusters = Array.of_list clustering in
  let n = app.Application.iterations in
  let sum_kernels f (c : Cluster.t) =
    Msutil.Listx.sum_by (fun kid -> f (Application.kernel app kid)) c.kernels
  in
  {
    clusters;
    iterations = n;
    rf;
    s_max = (n + rf - 1) / rf * Array.length clusters;
    per_iter =
      Array.map (sum_kernels (fun k -> k.Kernel_ir.Kernel.exec_cycles)) clusters;
    (* one context broadcast per kernel per round (loop fission lets each
       kernel keep its configuration for all the round's iterations) *)
    reconfig =
      Array.map
        (sum_kernels (fun k ->
             Morphosys.Rc_array.reconfigure_cycles config
               ~contexts:k.Kernel_ir.Kernel.contexts))
        clusters;
  }

let cluster_at p s = p.clusters.(s mod Array.length p.clusters)
let round_at p s = s / Array.length p.clusters
let iters_at p s = min p.rf (p.iterations - (round_at p s * p.rf))

let compute_at p s =
  let k = s mod Array.length p.clusters in
  (iters_at p s * p.per_iter.(k)) + p.reconfig.(k)

(* A transfer may overlap a computation on [set] unless it reads or writes
   that same FB set; context loads go to the CM and always overlap. *)
let can_overlap ~computing_set (tr : Dma.t) =
  match tr.Dma.kind with
  | Dma.Context -> true
  | Dma.Data { set; _ } -> set <> computing_set

(* [trs @ acc], sharing [trs] itself when [acc] is empty. *)
let prepend trs acc = match acc with [] -> trs | _ -> trs @ acc

let build ?(cross_set = false) config app clustering ~rf ~ctx_plan ~generators
    ~scheduler =
  if rf < 1 then invalid_arg "Step_builder.build: rf must be >= 1";
  let p = pipeline config app clustering ~rf in
  let transfers gen s =
    if s < 0 || s >= p.s_max then []
    else
      let round = round_at p s in
      gen (cluster_at p s) ~round ~iters:(iters_at p s) ~base_iter:(round * rf)
  in
  let loads_of = transfers generators.loads in
  let stores_of = transfers generators.stores in
  let ctx_of s =
    if s >= p.s_max then []
    else
      let cluster = cluster_at p s in
      let words =
        Context_scheduler.load_words_for_round ctx_plan ~app ~cluster
          ~round:(round_at p s)
      in
      if words = 0 then []
      else
        [
          Dma.context_load
            ~kernel:("Cl" ^ string_of_int cluster.Cluster.id)
            ~words;
        ]
  in
  let steps = ref [] in
  let emit step = steps := step :: !steps in
  (* Priming step: everything execution 0 needs, nothing to overlap with. *)
  emit
    {
      Schedule.compute = None;
      dma = prepend (ctx_of 0) (loads_of 0);
      note = "prime first cluster";
    };
  for s = 0 to p.s_max - 1 do
    let cluster = cluster_at p s in
    let overlaps = can_overlap ~computing_set:cluster.Cluster.fb_set in
    (* The DMA work of step [s] is stores (s-1), loads (s+1), ctx (s+1), in
       that order. Each batch is routed to the overlapped or deferred list
       as a whole when its transfers agree (one batch targets one set), and
       the batches are taken last first so prepending keeps the order. *)
    let overlapped = ref [] and deferred = ref [] in
    let route trs =
      let ov, def =
        if List.for_all overlaps trs then (trs, [])
        else if not (List.exists overlaps trs) then ([], trs)
        else List.partition overlaps trs
      in
      overlapped := prepend ov !overlapped;
      deferred := prepend def !deferred
    in
    route (ctx_of (s + 1));
    route (loads_of (s + 1));
    route (stores_of (s - 1));
    emit
      {
        Schedule.compute =
          Some
            {
              Schedule.cluster;
              round = round_at p s;
              iterations = iters_at p s;
              compute_cycles = compute_at p s;
            };
        dma = !overlapped;
        note = "";
      };
    if !deferred <> [] then
      emit
        { Schedule.compute = None; dma = !deferred; note = "set conflict stall" }
  done;
  (* Drain: results of the last execution. *)
  let final_stores = stores_of (p.s_max - 1) in
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

(* Channel cycles of a round's transfers of [objects]: one instance per
   iteration (one for an invariant object), each costing
   [dma_setup + words * per-word]. *)
let rec objects_cost (config : Morphosys.Config.t) ~iters acc = function
  | [] -> acc
  | (d : Kernel_ir.Data.t) :: rest ->
    let inst = if d.Kernel_ir.Data.invariant then 1 else iters in
    let one =
      config.dma_setup_cycles
      + (d.Kernel_ir.Data.size * config.data_cycles_per_word)
    in
    objects_cost config ~iters (acc + (inst * one)) rest

(* Exactly [Schedule_cost.estimate config (build ... ~generators)] for the
   generators derived from [selectors]. Follows [build]'s step structure —
   prime, per-execution overlap/stall routing, final drain — summing costs
   only: no transfer list, no per-execution table. Each execution's loads
   and stores are costed once, at the step that moves them, so scheduler
   RF searches can rank every candidate factor and build only the
   winner. *)
let estimate (config : Morphosys.Config.t) app clustering ~rf ~ctx_plan
    ~selectors =
  if rf < 1 then invalid_arg "Step_builder.estimate: rf must be >= 1";
  let p = pipeline config app clustering ~rf in
  let cost select s =
    if s < 0 || s >= p.s_max then 0
    else
      objects_cost config ~iters:(iters_at p s) 0
        (select (cluster_at p s) ~round:(round_at p s))
  in
  let loads = cost selectors.load_objects in
  let stores = cost selectors.store_objects in
  let ctx s =
    if s >= p.s_max then 0
    else
      let words =
        Context_scheduler.load_words_for_round ctx_plan ~app
          ~cluster:(cluster_at p s) ~round:(round_at p s)
      in
      if words = 0 then 0
      else
        config.Morphosys.Config.dma_setup_cycles
        + (words * config.Morphosys.Config.context_cycles_per_word)
  in
  let conflicts s s' =
    s' >= 0 && s' < p.s_max
    && (cluster_at p s').Cluster.fb_set = (cluster_at p s).Cluster.fb_set
  in
  (* prime step: pure DMA, nothing to overlap with *)
  let total = ref (ctx 0 + loads 0) in
  for s = 0 to p.s_max - 1 do
    let st = stores (s - 1) and ld = loads (s + 1) in
    let st_conflicts = conflicts s (s - 1)
    and ld_conflicts = conflicts s (s + 1) in
    let overlapped =
      ctx (s + 1)
      + (if st_conflicts then 0 else st)
      + if ld_conflicts then 0 else ld
    in
    (* a stall step costs its transfers; an empty one is not emitted *)
    let deferred =
      (if st_conflicts then st else 0) + if ld_conflicts then ld else 0
    in
    total := !total + max overlapped (compute_at p s) + deferred
  done;
  (* drain: the last execution's stores *)
  !total + stores (p.s_max - 1)

type 'a policy = {
  name : string;
  cross_set : bool;
  rf_bound : Sched_ctx.t -> Morphosys.Config.t -> (int, Diag.t) result;
  selectors : Sched_ctx.t -> Morphosys.Config.t -> rf:int -> 'a * selectors;
}

let log_src = Logs.Src.create "sched" ~doc:"Scheduler RF choices"

module Log = (val Logs.src_log log_src)

let ( let* ) = Result.bind

(* Where both entries start: the context plan and the policy's RF bound,
   each error tagged with the policy's name, handed to [k]. *)
let prepare policy ctx config k =
  let tagged r = Result.map_error (Diag.with_scheduler policy.name) r in
  let* ctx_plan =
    tagged (Context_scheduler.plan_of_analysis config (Sched_ctx.analysis ctx))
  in
  let* rf_max = tagged (policy.rf_bound ctx config) in
  k ~ctx_plan ~rf_max

(* Where both entries end: one [build] at [rf] from the policy's selectors
   there. *)
let build_at policy ctx config ~ctx_plan ~rf (payload, selectors) =
  ( build ~cross_set:policy.cross_set config (Sched_ctx.app ctx)
      (Sched_ctx.clustering ctx) ~rf ~ctx_plan
      ~generators:(generators_of_selectors selectors)
      ~scheduler:policy.name,
    payload )

(* The one scheduler driver: context plan, the policy's RF bound, the
   fastest RF by [estimate] (ties go to the larger RF, which frees more CM
   bandwidth; the largest memory-allowed RF is not always fastest, since
   batching RF iterations of transfers can exceed what an imbalanced
   pipeline hides), then a single [build] of the winner. *)
let search policy ctx config =
  prepare policy ctx config @@ fun ~ctx_plan ~rf_max ->
  let app = Sched_ctx.app ctx and clustering = Sched_ctx.clustering ctx in
  let candidate rf = (rf, policy.selectors ctx config ~rf) in
  let rf, chosen =
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
  Ok (build_at policy ctx config ~ctx_plan ~rf chosen)

(* [search] without the RF search: the schedule a stored design point's RF
   stands for. *)
let at_rf policy ctx config ~rf =
  prepare policy ctx config @@ fun ~ctx_plan ~rf_max ->
  if rf < 1 || rf > rf_max then
    Error
      (Diag.v ~scheduler:policy.name Diag.Invalid_config
         "rf %d is outside the feasible 1..%d" rf rf_max)
  else
    Ok
      (build_at policy ctx config ~ctx_plan ~rf
         (policy.selectors ctx config ~rf))

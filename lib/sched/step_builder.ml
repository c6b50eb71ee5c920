module Cluster = Kernel_ir.Cluster
module Application = Kernel_ir.Application
module Dma = Morphosys.Dma
module Fb = Morphosys.Frame_buffer

(* A scheduler's transfer choice: which data objects each cluster loads
   and stores, one table row per cluster id. A cluster's choice depends
   on the round only through "round 0 or a later one" (a retained
   invariant table is loaded in round 0 alone), so two load tables and
   one store table hold every round. [build] expands them mechanically
   into labelled transfers (one instance per iteration, one for an
   invariant object), so [estimate] can cost a schedule from the objects
   alone without materialising them. *)
type selectors = {
  first_loads : Kernel_ir.Data.t list array;
  later_loads : Kernel_ir.Data.t list array;
  stored : Kernel_ir.Data.t list array;
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

let pipeline app clustering ~rf =
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
             Morphosys.Rc_array.reconfigure_cycles
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

let build ?(cross_set = false) (_ : Morphosys.Config.t) app clustering ~rf
    ~ctx_plan ~generators:selectors ~scheduler =
  if rf < 1 then invalid_arg "Step_builder.build: rf must be >= 1";
  let p = pipeline app clustering ~rf in
  (* execution [s]'s transfers: its cluster's row of the round's table,
     one labelled transfer per instance *)
  let transfers table_of transfer s =
    if s < 0 || s >= p.s_max then []
    else
      let c = cluster_at p s and round = round_at p s in
      instances
        ~objects:(table_of round).(c.Cluster.id)
        ~iters:(iters_at p s) ~base_iter:(round * rf)
        (transfer ~set:c.Cluster.fb_set)
  in
  let loads_of =
    transfers
      (fun round ->
        if round = 0 then selectors.first_loads else selectors.later_loads)
      Dma.data_load
  in
  let stores_of = transfers (fun _ -> selectors.stored) Dma.data_store in
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

type cost = { cycles : int; data_words : int; context_words : int }

(* What each table row moves in a round of [iters] iterations, by
   position in the clustering: [iters * iter_words + once_words] words in
   [iters * iter_cycles + once_cycles] channel cycles. An invariant object
   moves once per round, any other object once per iteration, and each
   instance costs [dma_setup + words * Dma.cycles_per_word] cycles. *)
type rows = {
  iter_words : int array;
  once_words : int array;
  iter_cycles : int array;
  once_cycles : int array;
}

let sum_rows (config : Morphosys.Config.t) clusters table =
  let n = Array.length clusters in
  let r =
    {
      iter_words = Array.make n 0;
      once_words = Array.make n 0;
      iter_cycles = Array.make n 0;
      once_cycles = Array.make n 0;
    }
  in
  Array.iteri
    (fun k (c : Cluster.t) ->
      List.iter
        (fun (d : Kernel_ir.Data.t) ->
          let size = d.Kernel_ir.Data.size in
          let one = config.dma_setup_cycles + (size * Dma.cycles_per_word) in
          if d.Kernel_ir.Data.invariant then begin
            r.once_words.(k) <- r.once_words.(k) + size;
            r.once_cycles.(k) <- r.once_cycles.(k) + one
          end
          else begin
            r.iter_words.(k) <- r.iter_words.(k) + size;
            r.iter_cycles.(k) <- r.iter_cycles.(k) + one
          end)
        table.(c.Cluster.id))
    clusters;
  r

(* Exactly the simulator's totals for [build ... ~generators:selectors].
   Each table row is summed once; the walk over the executions then
   follows [build]'s step structure — prime, per-execution overlap/stall
   routing, final drain — with integer arithmetic alone: no transfer
   list, no selection and no allocation per execution. Each execution's
   loads, stores and context load are counted once, at the step that
   moves them, so scheduler RF searches can rank every candidate factor
   and a design point can be priced without building its schedule. *)
let estimate (config : Morphosys.Config.t) app clustering ~rf ~ctx_plan
    ~selectors =
  if rf < 1 then invalid_arg "Step_builder.estimate: rf must be >= 1";
  let p = pipeline app clustering ~rf in
  let n = Array.length p.clusters in
  let rows = sum_rows config p.clusters in
  let first_loads = rows selectors.first_loads in
  let later_loads =
    if selectors.later_loads == selectors.first_loads then first_loads
    else rows selectors.later_loads
  in
  let stored = rows selectors.stored in
  let data_words = ref 0 and context_words = ref 0 in
  (* cycles of execution [s]'s transfers of one table, its words counted *)
  let moved table s =
    if s < 0 || s >= p.s_max then 0
    else
      let k = s mod n and iters = iters_at p s in
      data_words :=
        !data_words + (iters * table.iter_words.(k)) + table.once_words.(k);
      (iters * table.iter_cycles.(k)) + table.once_cycles.(k)
  in
  let loads s = moved (if s < n then first_loads else later_loads) s in
  let stores s = moved stored s in
  let ctx s =
    if s >= p.s_max then 0
    else
      let words =
        Context_scheduler.load_words_for_round ctx_plan ~app
          ~cluster:(cluster_at p s) ~round:(round_at p s)
      in
      if words = 0 then 0
      else begin
        context_words := !context_words + words;
        config.Morphosys.Config.dma_setup_cycles
        + (words * Dma.cycles_per_word)
      end
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
  let cycles = !total + stores (p.s_max - 1) in
  { cycles; data_words = !data_words; context_words = !context_words }

type 'a policy = {
  name : string;
  cross_set : bool;
  rf_bound : Sched_ctx.t -> Morphosys.Config.t -> (int, Diag.t) result;
  selectors : Sched_ctx.t -> Morphosys.Config.t -> rf:int -> 'a * selectors;
}

let ( let* ) = Result.bind

(* The RF search: the context plan, the policy's RF bound (each error
   tagged with the policy's name), then the fastest RF by [estimate] (ties
   go to the larger RF, which frees more CM bandwidth; the largest
   memory-allowed RF is not always fastest, since batching RF iterations
   of transfers can exceed what an imbalanced pipeline hides). Returns the
   plan, the winning RF, its payload and selectors, and its estimated
   cost. *)
let choose policy ctx config =
  let tagged r = Result.map_error (Diag.with_scheduler policy.name) r in
  let* ctx_plan =
    tagged (Context_scheduler.plan_of_analysis config (Sched_ctx.analysis ctx))
  in
  let* rf_max = tagged (policy.rf_bound ctx config) in
  let app = Sched_ctx.app ctx and clustering = Sched_ctx.clustering ctx in
  let best = ref None in
  for rf = 1 to rf_max do
    let ((_, selectors) as chosen) = policy.selectors ctx config ~rf in
    let cost = estimate config app clustering ~rf ~ctx_plan ~selectors in
    match !best with
    | Some (_, _, best_cost) when best_cost.cycles < cost.cycles -> ()
    | _ -> best := Some (rf, chosen, cost)
  done;
  let rf, chosen, cost = Option.get !best in
  Ok (ctx_plan, rf, chosen, cost)

(* The one scheduler driver: the RF search, then a single [build] of the
   winner. *)
let search policy ctx config =
  let* ctx_plan, rf, (payload, selectors), _ = choose policy ctx config in
  Ok
    ( build ~cross_set:policy.cross_set config (Sched_ctx.app ctx)
        (Sched_ctx.clustering ctx) ~rf ~ctx_plan ~generators:selectors
        ~scheduler:policy.name,
      payload )

(* The RF search alone: what [search]'s schedule would cost, unbuilt. *)
let price policy ctx config =
  let* _, rf, _, cost = choose policy ctx config in
  Ok (rf, cost)

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
   cycles per iteration and per round do not depend on RF, so a [frame]
   sums them once per context, not once per execution or per RF. *)
type frame = {
  clusters : Cluster.t array;  (** in clustering order *)
  iterations : int;  (** of the application *)
  per_iter : int array;  (** per cluster: RC-array cycles of one iteration *)
  reconfig : int array;  (** per cluster: context broadcasts of one round *)
}

let frame app clustering =
  let clusters = Array.of_list clustering in
  let sum_kernels f (c : Cluster.t) =
    Msutil.Listx.sum_by (fun kid -> f (Application.kernel app kid)) c.kernels
  in
  {
    clusters;
    iterations = app.Application.iterations;
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

type pipeline = {
  frame : frame;
  rf : int;
  rounds : int;  (** of RF iterations, the last one possibly partial *)
  s_max : int;  (** number of executions *)
}

let pipeline frame ~rf =
  let rounds = (frame.iterations + rf - 1) / rf in
  {
    frame;
    rf;
    rounds;
    s_max = rounds * Array.length frame.clusters;
  }

let cluster_at p s = p.frame.clusters.(s mod Array.length p.frame.clusters)
let round_at p s = s / Array.length p.frame.clusters
let iters_at p s = min p.rf (p.frame.iterations - (round_at p s * p.rf))

let compute_at p s =
  let k = s mod Array.length p.frame.clusters in
  (iters_at p s * p.frame.per_iter.(k)) + p.frame.reconfig.(k)

(* A transfer may overlap a computation on [set] unless it reads or writes
   that same FB set; context loads go to the CM and always overlap. *)
let can_overlap ~computing_set (tr : Dma.t) =
  match tr.Dma.kind with
  | Dma.Context -> true
  | Dma.Data { set; _ } -> set <> computing_set

(* [trs @ acc], sharing [trs] itself when [acc] is empty. *)
let prepend trs acc = match acc with [] -> trs | _ -> trs @ acc

let build_framed ~cross_set frame app clustering ~rf ~ctx_plan selectors
    ~scheduler =
  if rf < 1 then invalid_arg "Step_builder.build: rf must be >= 1";
  let p = pipeline frame ~rf in
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

let build ?(cross_set = false) (_ : Morphosys.Config.t) app clustering ~rf
    ~ctx_plan ~generators ~scheduler =
  build_framed ~cross_set (frame app clustering) app clustering ~rf ~ctx_plan
    generators ~scheduler

type cost = { cycles : int; data_words : int; context_words : int }

(* What one table moves in a round of [iters] iterations, by cluster id:
   [iters * iter_words + once_words] words in [iters * iter_count +
   once_count] transfers. An invariant object moves once per round, any
   other object once per iteration. The machine is not read: a transfer's
   channel cycles are [dma_setup + words * Dma.cycles_per_word], so a
   row's cycles are [count * dma_setup + words * Dma.cycles_per_word],
   worked out at price time. *)
type rows = {
  iter_words : int array;
  iter_count : int array;
  once_words : int array;
  once_count : int array;
}

let rows table =
  let n = Array.length table in
  let r =
    {
      iter_words = Array.make n 0;
      iter_count = Array.make n 0;
      once_words = Array.make n 0;
      once_count = Array.make n 0;
    }
  in
  Array.iteri
    (fun k objects ->
      List.iter
        (fun (d : Kernel_ir.Data.t) ->
          let size = d.Kernel_ir.Data.size in
          if d.Kernel_ir.Data.invariant then begin
            r.once_words.(k) <- r.once_words.(k) + size;
            r.once_count.(k) <- r.once_count.(k) + 1
          end
          else begin
            r.iter_words.(k) <- r.iter_words.(k) + size;
            r.iter_count.(k) <- r.iter_count.(k) + 1
          end)
        objects)
    table;
  r

type tally = { first_rows : rows; later_rows : rows; stored_rows : rows }

let tally selectors =
  let first_rows = rows selectors.first_loads in
  {
    first_rows;
    later_rows =
      (if selectors.later_loads == selectors.first_loads then first_rows
       else rows selectors.later_loads);
    stored_rows = rows selectors.stored;
  }

(* Exactly the simulator's totals for [build ... ~generators:selectors],
   from the rows of [selectors]. The walk follows [build]'s step structure
   — prime, per-execution overlap/stall routing, final drain — with
   integer arithmetic alone: no transfer list, no selection and no
   allocation per execution. Each execution's loads, stores and context
   load are counted once, at the step that moves them, so scheduler RF
   searches can rank every candidate factor and a design point can be
   priced without building its schedule.

   Execution [s]'s step reads only its cluster, whether [s+1] is in round
   0 (first-round loads) or a later round (context reload), the
   iterations of the rounds of [s-1], [s] and [s+1], and the boundaries
   [s-1 >= 0] and [s+1 < s_max]. Only the last round may be partial, so
   every round [r] with [1 <= r <= rounds-3] costs what round 1 costs:
   the walk prices round 0, round 1 and the last two rounds step by step
   and counts round 1 again for each of the others. *)
let estimate_tally (config : Morphosys.Config.t) frame app ~rf ~ctx_plan t =
  if rf < 1 then invalid_arg "Step_builder.estimate: rf must be >= 1";
  let p = pipeline frame ~rf in
  let n = Array.length p.frame.clusters in
  let setup = config.Morphosys.Config.dma_setup_cycles in
  let data_words = ref 0 and context_words = ref 0 in
  (* cycles of execution [s]'s transfers of one table, its words counted *)
  let moved table s =
    if s < 0 || s >= p.s_max then 0
    else
      let k = (cluster_at p s).Cluster.id and iters = iters_at p s in
      let words = (iters * table.iter_words.(k)) + table.once_words.(k) in
      data_words := !data_words + words;
      (((iters * table.iter_count.(k)) + table.once_count.(k)) * setup)
      + (words * Dma.cycles_per_word)
  in
  let loads s = moved (if s < n then t.first_rows else t.later_rows) s in
  let stores s = moved t.stored_rows s in
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
        setup + (words * Dma.cycles_per_word)
      end
  in
  let conflicts s s' =
    s' >= 0 && s' < p.s_max
    && (cluster_at p s').Cluster.fb_set = (cluster_at p s).Cluster.fb_set
  in
  (* the cycles of execution [s]'s step and of its stall step, if any *)
  let step s =
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
    max overlapped (compute_at p s) + deferred
  in
  let walk first last =
    let cycles = ref 0 in
    for s = first to last - 1 do
      cycles := !cycles + step s
    done;
    !cycles
  in
  (* prime step: pure DMA, nothing to overlap with *)
  let prime = ctx 0 + loads 0 in
  let executions =
    if p.rounds <= 4 then walk 0 p.s_max
    else begin
      let head = walk 0 n in
      let data0 = !data_words and context0 = !context_words in
      let steady = walk n (2 * n) in
      let copies = p.rounds - 4 in
      data_words := !data_words + (copies * (!data_words - data0));
      context_words := !context_words + (copies * (!context_words - context0));
      head + ((copies + 1) * steady) + walk ((p.rounds - 2) * n) p.s_max
    end
  in
  (* drain: the last execution's stores *)
  let cycles = prime + executions + stores (p.s_max - 1) in
  { cycles; data_words = !data_words; context_words = !context_words }

let estimate config app clustering ~rf ~ctx_plan ~selectors =
  estimate_tally config (frame app clustering) app ~rf ~ctx_plan
    (tally selectors)

type 'a choice = { tally : tally; chosen : unit -> 'a * selectors }

type 'a staged = {
  rf_bound : Morphosys.Config.t -> (int, Diag.t) result;
  at_rf : Morphosys.Config.t -> rf:int -> 'a choice;
}

type 'a policy = {
  name : string;
  cross_set : bool;
  stage : Sched_ctx.t -> 'a staged;
}

type 'a bound = {
  policy : 'a policy;
  ctx : Sched_ctx.t;
  frame : frame;
  staged : 'a staged;
}

let bind policy ctx =
  {
    policy;
    ctx;
    frame = frame (Sched_ctx.app ctx) (Sched_ctx.clustering ctx);
    staged = policy.stage ctx;
  }

let ( let* ) = Result.bind

(* The RF search: the context plan, the policy's RF bound (each error
   tagged with the policy's name), then the fastest RF by its estimate
   (ties go to the larger RF, which frees more CM bandwidth; the largest
   memory-allowed RF is not always fastest, since batching RF iterations
   of transfers can exceed what an imbalanced pipeline hides). Returns the
   plan, the winning RF, its choice and its estimated cost. *)
let choose b config =
  let tagged r = Result.map_error (Diag.with_scheduler b.policy.name) r in
  let* ctx_plan =
    tagged
      (Context_scheduler.plan_of_analysis config (Sched_ctx.analysis b.ctx))
  in
  let* rf_max = tagged (b.staged.rf_bound config) in
  let app = Sched_ctx.app b.ctx in
  let best = ref None in
  for rf = 1 to rf_max do
    let choice = b.staged.at_rf config ~rf in
    let cost = estimate_tally config b.frame app ~rf ~ctx_plan choice.tally in
    match !best with
    | Some (_, _, best_cost) when best_cost.cycles < cost.cycles -> ()
    | _ -> best := Some (rf, choice, cost)
  done;
  let rf, choice, cost = Option.get !best in
  Ok (ctx_plan, rf, choice, cost)

(* The one scheduler driver: the RF search, then a single [build] of the
   winner's tables. *)
let search b config =
  let* ctx_plan, rf, choice, _ = choose b config in
  let payload, selectors = choice.chosen () in
  Ok
    ( build_framed ~cross_set:b.policy.cross_set b.frame (Sched_ctx.app b.ctx)
        (Sched_ctx.clustering b.ctx) ~rf ~ctx_plan selectors
        ~scheduler:b.policy.name,
      payload )

(* The RF search alone: what [search]'s schedule would cost, unbuilt. *)
let price b config =
  let* _, rf, _, cost = choose b config in
  Ok (rf, cost)

module Dma = Morphosys.Dma
module Fb = Morphosys.Frame_buffer
module Schedule = Sched.Schedule
module Application = Kernel_ir.Application
module Data = Kernel_ir.Data

type violation = { step_index : int; message : string }

let pp_violation fmt v =
  Format.fprintf fmt "step %d: %s" v.step_index v.message

type state = {
  resident : (Fb.set * string, unit) Hashtbl.t;
  stored : (string, int) Hashtbl.t;
  executed : (int * int, unit) Hashtbl.t;
  mutable violations : violation list;
}

let report state step_index fmt =
  Format.kasprintf
    (fun message ->
      state.violations <- { step_index; message } :: state.violations)
    fmt

let mark_resident state set label =
  Hashtbl.replace state.resident (set, label) ()

let is_resident state set label = Hashtbl.mem state.resident (set, label)

let is_readable state ~cross_set set label =
  is_resident state set label
  || (cross_set && is_resident state (Fb.other set) label)

let check_compute state app i (c : Schedule.computation) ~rf ~cross_set =
  let cluster = c.Schedule.cluster in
  let set = cluster.Kernel_ir.Cluster.fb_set in
  let base = c.Schedule.round * rf in
  for local = 0 to c.Schedule.iterations - 1 do
    let g = base + local in
    let key = (cluster.Kernel_ir.Cluster.id, g) in
    if Hashtbl.mem state.executed key then
      report state i "cluster %d executes iteration %d twice"
        cluster.Kernel_ir.Cluster.id g
    else Hashtbl.replace state.executed key ();
    List.iter
      (fun kid ->
        List.iter
          (fun (d : Data.t) ->
            let label =
              Schedule.instance_label d.name ~iter:(Data.instance_iter d g)
            in
            if not (is_readable state ~cross_set set label) then
              report state i
                "kernel %d of cluster %d reads %s but it is not resident in \
                 set %s"
                kid cluster.Kernel_ir.Cluster.id label (Fb.set_to_string set))
          (Application.inputs_of app kid);
        List.iter
          (fun (d : Data.t) ->
            mark_resident state set (Schedule.instance_label d.name ~iter:g))
          (Application.outputs_of app kid))
      cluster.Kernel_ir.Cluster.kernels
  done

let check_dma state app i ~computing_set (tr : Dma.t) =
  (match (computing_set, tr.Dma.kind) with
  | Some cset, Dma.Data { set; _ } when set = cset ->
    report state i "transfer %a touches the computing set %s" Dma.pp tr
      (Fb.set_to_string cset)
  | _ -> ());
  match tr.Dma.kind with
  | Dma.Context -> ()
  | Dma.Data { set; direction } -> (
    (match Schedule.parse_label tr.Dma.label with
    | None -> report state i "unparsable data label %S" tr.Dma.label
    | Some (name, _) -> (
      match Application.data_by_name_opt app name with
      | Some (_ : Data.t) -> ()
      | None -> report state i "transfer references unknown data %S" name));
    match direction with
    | Dma.Load -> mark_resident state set tr.Dma.label
    | Dma.Store ->
      if not (is_resident state set tr.Dma.label) then
        report state i "store of %s from set %s but it is not resident"
          tr.Dma.label (Fb.set_to_string set);
      Hashtbl.replace state.stored tr.Dma.label
        (1 + Option.value ~default:0 (Hashtbl.find_opt state.stored tr.Dma.label)))

let check (schedule : Schedule.t) =
  let app = schedule.app in
  (* One bucket per (object, iteration) instance, and per (cluster,
     iteration) pair for [executed], so a small schedule's tables are
     minor-heap blocks (at most 256 words) rather than major-heap ones. A
     table still grows when the schedule holds more entries. *)
  let per_iteration n = n * app.Application.iterations in
  let instances = per_iteration (List.length app.Application.data) in
  let pairs = per_iteration (List.length schedule.clustering) in
  let state =
    {
      resident = Hashtbl.create instances;
      stored = Hashtbl.create instances;
      executed = Hashtbl.create pairs;
      violations = [];
    }
  in
  List.iteri
    (fun i (step : Schedule.step) ->
      let computing_set =
        Option.map
          (fun c -> c.Schedule.cluster.Kernel_ir.Cluster.fb_set)
          step.compute
      in
      (match step.compute with
      | Some c ->
        check_compute state app i c ~rf:schedule.rf
          ~cross_set:schedule.cross_set
      | None -> ());
      List.iter (check_dma state app i ~computing_set) step.dma)
    schedule.steps;
  let last = List.length schedule.steps in
  (* Output completeness: every final result of every iteration stored once. *)
  List.iter
    (fun (d : Data.t) ->
      for g = 0 to app.Application.iterations - 1 do
        let label = Schedule.instance_label d.name ~iter:g in
        match Option.value ~default:0 (Hashtbl.find_opt state.stored label) with
        | 1 -> ()
        | 0 -> report state last "final result %s never stored" label
        | n -> report state last "final result %s stored %d times" label n
      done)
    (Application.final_results app);
  (* Coverage: every cluster executes every iteration. *)
  List.iter
    (fun (c : Kernel_ir.Cluster.t) ->
      for g = 0 to app.Application.iterations - 1 do
        if not (Hashtbl.mem state.executed (c.Kernel_ir.Cluster.id, g)) then
          report state last "cluster %d never executes iteration %d"
            c.Kernel_ir.Cluster.id g
      done)
    schedule.clustering;
  List.rev state.violations

let check_result schedule =
  match check schedule with
  | [] -> Ok ()
  | violations ->
    Error
      (Diag.v Diag.Sim_divergence "%s"
         (violations
         |> List.map (Format.asprintf "%a" pp_violation)
         |> String.concat "; "))

let check_exn schedule =
  match check_result schedule with
  | Ok () -> ()
  | Error d -> failwith ("Validate.check_exn: " ^ d.Diag.message)

type case = { index : int; scheduler : string; message : string }

type report = {
  seed : int;
  count : int;
  fb_set_size : int;
  schedules_checked : int;
  infeasible : int;
  violations : case list;
  ordering_failures : case list;
  crashes : case list;
}

(* Outcome of one scheduler on one random application. *)
type verdict =
  | Infeasible
  | Valid of int  (** simulated total cycles *)
  | Violated of string

let verdict_of ~scheduler config ctx =
  match Sched.Scheduler_registry.run scheduler ctx config with
  | Error _ -> Infeasible
  | Ok s -> (
    match Msim.Validate.check s with
    | [] -> Valid (Msim.Executor.run config s).Msim.Metrics.total_cycles
    | v :: _ -> Violated (Format.asprintf "%a" Msim.Validate.pp_violation v))

let fuzz_one ~seed ~fb_set_size ?stats index =
  (* The generator state depends only on (seed, index): whichever domain
     runs this task, whatever order tasks complete in, application
     [index] is always the same application. *)
  let rand = Random.State.make [| 0x5eed; seed; index |] in
  let app, clustering =
    QCheck.Gen.generate1 ~rand
      Workloads.Random_app.gen_app_with_clustering
  in
  let config = Morphosys.Config.m1 ~fb_set_size in
  let ctx = Sched.Sched_ctx.make app clustering in
  let timed scheduler f =
    match stats with
    | None -> f ()
    | Some st -> Engine.Stats.time st ~label:scheduler f
  in
  List.map
    (fun scheduler ->
      (scheduler, timed scheduler (fun () -> verdict_of ~scheduler config ctx)))
    [ "basic"; "ds"; "cds" ]

let run ?(jobs = 1) ?(fb_set_size = 4096) ?stats ~seed ~count () =
  let tasks =
    Array.init count (fun i () -> fuzz_one ~seed ~fb_set_size ?stats i)
  in
  let outcomes = Engine.Pool.run_results ~jobs tasks in
  let checked = ref 0 and infeasible = ref 0 in
  let violations = ref [] and ordering = ref [] and crashes = ref [] in
  Array.iteri
    (fun index outcome ->
      match outcome with
      | Error d ->
        crashes :=
          { index; scheduler = "task"; message = Diag.render d } :: !crashes
      | Ok verdicts -> (
        List.iter
          (fun (scheduler, v) ->
            match v with
            | Infeasible -> incr infeasible
            | Valid _ -> incr checked
            | Violated message ->
              incr checked;
              violations := { index; scheduler; message } :: !violations)
          verdicts;
        match
          List.filter_map
            (fun s ->
              match List.assoc s verdicts with
              | Valid c -> Some c
              | Infeasible | Violated _ -> None)
            [ "basic"; "ds"; "cds" ]
        with
        | [ basic; ds; cds ] ->
          if not (cds <= ds && ds <= basic) then
            ordering :=
              { index; scheduler = "cds/ds/basic";
                message =
                  Printf.sprintf "cycles not monotone: basic=%d ds=%d cds=%d"
                    basic ds cds }
              :: !ordering
        | _ -> ()))
    outcomes;
  {
    seed;
    count;
    fb_set_size;
    schedules_checked = !checked;
    infeasible = !infeasible;
    violations = List.rev !violations;
    ordering_failures = List.rev !ordering;
    crashes = List.rev !crashes;
  }

let ok r = r.violations = [] && r.ordering_failures = [] && r.crashes = []

let pp ppf r =
  Format.fprintf ppf
    "@[<v>fuzz seed=%d count=%d fb=%d: %d schedules checked, %d infeasible@,"
    r.seed r.count r.fb_set_size r.schedules_checked r.infeasible;
  let dump title = function
    | [] -> Format.fprintf ppf "%s: none@," title
    | cases ->
      Format.fprintf ppf "%s: %d@," title (List.length cases);
      List.iter
        (fun c ->
          Format.fprintf ppf "  app %d [%s]: %s@," c.index c.scheduler
            c.message)
        cases
  in
  dump "validator violations" r.violations;
  dump "cycle-ordering failures" r.ordering_failures;
  dump "task crashes" r.crashes;
  Format.fprintf ppf "verdict: %s@]" (if ok r then "OK" else "FAILED")

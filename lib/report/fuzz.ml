module Kernel = Kernel_ir.Kernel
module Data = Kernel_ir.Data
module Application = Kernel_ir.Application
module Cluster = Kernel_ir.Cluster

type case = { index : int; scheduler : string; message : string }

type report = {
  seed : int;
  count : int;
  fb_set_size : int;
  schedules_checked : int;
  infeasible : int;
  violations : case list;
  ordering_failures : case list;
  faulted : int;
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
      (Workloads.Random_app.gen_app_with_clustering ())
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

(* Injected faults are absorbed (counted, not failures); anything else
   that escapes a task is a crash — a real bug. *)
let absorbed (d : Diag.t) = d.Diag.code = Diag.Fault_injected

let run ?(jobs = 1) ?(fb_set_size = 4096) ?stats ~seed ~count () =
  let tasks =
    Array.init count (fun i () -> fuzz_one ~seed ~fb_set_size ?stats i)
  in
  let outcomes = Engine.Pool.run_results ~jobs tasks in
  let checked = ref 0 and infeasible = ref 0 and faulted = ref 0 in
  let violations = ref [] and ordering = ref [] and crashes = ref [] in
  Array.iteri
    (fun index outcome ->
      match outcome with
      | Error d when absorbed d -> incr faulted
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
    faulted = !faulted;
    crashes = List.rev !crashes;
  }

let ok r = r.violations = [] && r.ordering_failures = [] && r.crashes = []

let pp ppf r =
  Format.fprintf ppf
    "@[<v>fuzz seed=%d count=%d fb=%d: %d schedules checked, %d infeasible, \
     %d faulted@,"
    r.seed r.count r.fb_set_size r.schedules_checked r.infeasible r.faulted;
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

(* ------------------------------------------------------------------ *)
(* Hostile mode: mutate valid random applications into (mostly) invalid
   ones and assert the stack never throws — every malformed input is
   either flagged by the input checks ([Application.check],
   [Cluster.check_partition]) or survives scheduling. *)

type raw = {
  raw_name : string;
  kernels : Kernel.t list;
  data : Data.t list;
  iterations : int;
  partition : int list;
}

type hostile_report = {
  h_seed : int;
  h_count : int;
  h_fb_set_size : int;
  rejected : int;  (** mutants flagged by the input checks *)
  survived : int;  (** mutants that checked clean and scheduled safely *)
  h_faulted : int;  (** pool slots absorbed by injected faults *)
  h_crashes : case list;  (** uncaught exceptions past a clean check *)
}

let raw_of_app (app : Application.t) clustering =
  {
    raw_name = app.Application.name;
    kernels = Array.to_list app.Application.kernels;
    data = app.Application.data;
    iterations = app.Application.iterations;
    partition = Cluster.partition_sizes clustering;
  }

(* Replace the [i]-th element of a list. *)
let replace_nth i f l = List.mapi (fun j x -> if j = i then f x else x) l

(* Each mutator returns [None] when the application lacks the shape it
   needs (e.g. a second kernel); the driver then treats the mutant as the
   identity control. Mutators are deterministic in (raw, rand). *)
let mutators :
    (string * (Random.State.t -> raw -> raw option)) list =
  let pick rand l =
    match l with
    | [] -> None
    | _ -> Some (List.nth l (Random.State.int rand (List.length l)))
  in
  let on_data rand raw pred f =
    let candidates =
      List.filteri (fun _ d -> pred d) raw.data
      |> List.map (fun (d : Data.t) -> d.Data.id)
    in
    pick rand candidates
    |> Option.map (fun id ->
           {
             raw with
             data =
               List.map
                 (fun (d : Data.t) -> if d.Data.id = id then f d else d)
                 raw.data;
           })
  in
  [
    ("identity", fun _ raw -> Some raw);
    ("zero-iterations", fun _ raw -> Some { raw with iterations = 0 });
    ("negative-iterations", fun _ raw -> Some { raw with iterations = -3 });
    ( "empty-kernels",
      fun _ raw -> Some { raw with kernels = []; partition = [] } );
    ( "dup-kernel-name",
      fun _ raw ->
        match raw.kernels with
        | (k0 : Kernel.t) :: _ :: _ ->
          Some
            {
              raw with
              kernels =
                replace_nth 1
                  (fun (k : Kernel.t) -> { k with Kernel.name = k0.Kernel.name })
                  raw.kernels;
            }
        | _ -> None );
    ( "swapped-kernel-ids",
      fun _ raw ->
        match raw.kernels with
        | (k0 : Kernel.t) :: k1 :: rest ->
          Some
            {
              raw with
              kernels =
                { k0 with Kernel.id = k1.Kernel.id }
                :: { k1 with Kernel.id = k0.Kernel.id }
                :: rest;
            }
        | _ -> None );
    ( "zero-contexts",
      fun rand raw ->
        match raw.kernels with
        | [] -> None
        | ks ->
          let i = Random.State.int rand (List.length ks) in
          Some
            {
              raw with
              kernels =
                replace_nth i
                  (fun (k : Kernel.t) -> { k with Kernel.contexts = 0 })
                  ks;
            } );
    ( "negative-data-size",
      fun rand raw ->
        on_data rand raw (fun _ -> true) (fun d -> { d with Data.size = -5 })
    );
    ( "empty-data-name",
      fun rand raw ->
        on_data rand raw (fun _ -> true) (fun d -> { d with Data.name = "" })
    );
    ( "dup-data-name",
      fun _ raw ->
        match raw.data with
        | (d0 : Data.t) :: _ :: _ ->
          Some
            {
              raw with
              data =
                replace_nth 1
                  (fun (d : Data.t) -> { d with Data.name = d0.Data.name })
                  raw.data;
            }
        | _ -> None );
    ( "dup-data-id",
      fun _ raw ->
        match raw.data with
        | (d0 : Data.t) :: _ :: _ ->
          Some
            {
              raw with
              data =
                replace_nth 1
                  (fun (d : Data.t) -> { d with Data.id = d0.Data.id })
                  raw.data;
            }
        | _ -> None );
    ( "oob-consumer",
      fun rand raw ->
        let n = List.length raw.kernels in
        on_data rand raw
          (fun _ -> true)
          (fun d -> { d with Data.consumers = [ n + 3 ] }) );
    ( "self-consume",
      fun rand raw ->
        on_data rand raw
          (fun d ->
            match d.Data.producer with
            | Data.Produced_by _ -> true
            | Data.External -> false)
          (fun d ->
            match d.Data.producer with
            | Data.Produced_by k -> { d with Data.consumers = [ k ] }
            | Data.External -> d) );
    ( "consumer-before-producer",
      fun rand raw ->
        on_data rand raw
          (fun d ->
            match d.Data.producer with
            | Data.Produced_by k -> k > 0
            | Data.External -> false)
          (fun d -> { d with Data.consumers = [ 0 ] }) );
    ( "invariant-result",
      fun rand raw ->
        on_data rand raw
          (fun d ->
            match d.Data.producer with
            | Data.Produced_by _ -> true
            | Data.External -> false)
          (fun d -> { d with Data.invariant = true }) );
    ( "external-no-consumers",
      fun rand raw ->
        on_data rand raw
          (fun d -> d.Data.producer = Data.External && not d.Data.final)
          (fun d -> { d with Data.consumers = [] }) );
    ( "bad-partition-sum",
      fun _ raw ->
        match raw.partition with
        | p :: rest -> Some { raw with partition = (p + 1) :: rest }
        | [] -> None );
    ( "zero-partition-size",
      fun _ raw ->
        match raw.partition with
        | _ :: rest -> Some { raw with partition = 0 :: rest }
        | [] -> None );
  ]

type hostile_outcome = Rejected | Survived | Crashed of string

(* Check-first discipline: a mutant the input checks flag is rejected
   without ever reaching a constructor; a mutant that checks clean must
   construct and schedule without an exception — if it throws anyway, a
   rule is missing from the checks and the mutant is a crash case. *)
let hostile_one ~seed ~fb_set_size index =
  let rand = Random.State.make [| 0xba5e; seed; index |] in
  let app, clustering =
    QCheck.Gen.generate1 ~rand
      (Workloads.Random_app.gen_app_with_clustering ())
  in
  let base = raw_of_app app clustering in
  let mname, mutate = List.nth mutators (index mod List.length mutators) in
  let raw = match mutate rand base with Some r -> r | None -> base in
  let diags =
    Application.check ~kernels:raw.kernels ~data:raw.data
      ~iterations:raw.iterations
    @ Cluster.check_partition ~n_kernels:(List.length raw.kernels)
        raw.partition
  in
  if diags <> [] then (mname, Rejected)
  else
    match
      Diag.guard (fun () ->
          let app =
            Application.make ~name:raw.raw_name ~kernels:raw.kernels
              ~data:raw.data ~iterations:raw.iterations
          in
          let clustering = Cluster.of_partition app raw.partition in
          let config = Morphosys.Config.m1 ~fb_set_size in
          let ctx = Sched.Sched_ctx.make app clustering in
          List.iter
            (fun scheduler ->
              match Sched.Scheduler_registry.run scheduler ctx config with
              | Ok s -> ignore (Msim.Validate.check s)
              | Error (_ : Diag.t) -> ())
            [ "basic"; "ds"; "cds" ])
    with
    | Ok () -> (mname, Survived)
    | Error d -> (mname, Crashed (Diag.render d))

let run_hostile ?(jobs = 1) ?(fb_set_size = 4096) ~seed ~count () =
  let tasks =
    Array.init count (fun i () -> hostile_one ~seed ~fb_set_size i)
  in
  let outcomes = Engine.Pool.run_results ~jobs tasks in
  let rejected = ref 0 and survived = ref 0 and faulted = ref 0 in
  let crashes = ref [] in
  Array.iteri
    (fun index outcome ->
      match outcome with
      | Error d when absorbed d -> incr faulted
      | Error d ->
        crashes :=
          { index; scheduler = "task"; message = Diag.render d } :: !crashes
      | Ok (_, Rejected) -> incr rejected
      | Ok (_, Survived) -> incr survived
      | Ok (mname, Crashed message) ->
        crashes := { index; scheduler = mname; message } :: !crashes)
    outcomes;
  {
    h_seed = seed;
    h_count = count;
    h_fb_set_size = fb_set_size;
    rejected = !rejected;
    survived = !survived;
    h_faulted = !faulted;
    h_crashes = List.rev !crashes;
  }

let hostile_ok r = r.h_crashes = []

let pp_hostile ppf r =
  Format.fprintf ppf
    "@[<v>hostile fuzz seed=%d count=%d fb=%d: %d rejected by the \
     input checks, %d survived scheduling, %d faulted@,"
    r.h_seed r.h_count r.h_fb_set_size r.rejected r.survived r.h_faulted;
  (match r.h_crashes with
  | [] -> Format.fprintf ppf "uncaught exceptions: none@,"
  | cases ->
    Format.fprintf ppf "uncaught exceptions: %d@," (List.length cases);
    List.iter
      (fun c ->
        Format.fprintf ppf "  mutant %d [%s]: %s@," c.index c.scheduler
          c.message)
      cases);
  Format.fprintf ppf "verdict: %s@]"
    (if hostile_ok r then "OK" else "FAILED")

(* Property-test oracle sweep: for random applications, every schedule
   the three schedulers produce must satisfy the semantic validator, the
   cycle counts must be monotone (CDS <= DS <= Basic), and the Pareto
   frontier of a sweep must be mutually non-dominated. *)

module Dse = Report.Dse

let config = Morphosys.Config.m1 ~fb_set_size:4096

let schedules (app, clustering) =
  let ctx = Sched.Sched_ctx.make app clustering in
  List.map
    (fun name -> (name, Fixtures.run name ctx config))
    [ "basic"; "ds"; "cds" ]

(* Each scheduler either declares the instance infeasible or produces a
   schedule the referee accepts. *)
let prop_validator (app, clustering) =
  List.for_all
    (fun (name, result) ->
      match result with
      | Error (_ : string) -> true
      | Ok s -> (
        match Msim.Validate.check s with
        | [] -> true
        | v :: _ ->
          QCheck.Test.fail_reportf "%s violates the validator: %a" name
            Msim.Validate.pp_violation v))
    (schedules (app, clustering))

(* When all three are feasible, more scheduling intelligence never costs
   cycles: CDS <= DS <= Basic. *)
let prop_monotone (app, clustering) =
  match
    List.filter_map
      (fun (_, result) ->
        match result with
        | Error _ -> None
        | Ok s -> Some (Msim.Executor.run config s).Msim.Metrics.total_cycles)
      (schedules (app, clustering))
  with
  | [ basic; ds; cds ] ->
    if cds <= ds && ds <= basic then true
    else
      QCheck.Test.fail_reportf "cycles not monotone: basic=%d ds=%d cds=%d"
        basic ds cds
  | _ -> true (* some scheduler infeasible: nothing to compare *)

(* No Pareto point may dominate another in (fb_set_size, total_cycles). *)
let prop_pareto (app, clustering) =
  let frontier =
    Dse.pareto
      (Dse.sweep ~fb_list:[ 1024; 2048; 4096; 8192 ] app clustering)
  in
  let dominates (p : Dse.point) (q : Dse.point) =
    let pc = Option.get p.Dse.total_cycles
    and qc = Option.get q.Dse.total_cycles in
    p.Dse.fb_set_size <= q.Dse.fb_set_size
    && pc <= qc
    && (p.Dse.fb_set_size < q.Dse.fb_set_size || pc < qc)
  in
  List.for_all
    (fun p ->
      List.for_all
        (fun q ->
          if p != q && dominates p q then
            QCheck.Test.fail_reportf
              "frontier point (fb=%d, cycles=%d) dominates (fb=%d, cycles=%d)"
              p.Dse.fb_set_size
              (Option.get p.Dse.total_cycles)
              q.Dse.fb_set_size
              (Option.get q.Dse.total_cycles)
          else true)
        frontier)
    frontier

let arb = Workloads.Random_app.arb_app_with_clustering

let tests =
  ( "fuzz_oracle",
    List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        QCheck.Test.make ~count:200 ~name:"validator accepts every schedule"
          arb prop_validator;
        QCheck.Test.make ~count:200 ~name:"cds <= ds <= basic cycles" arb
          prop_monotone;
        QCheck.Test.make ~count:40 ~name:"pareto mutual non-domination" arb
          prop_pareto;
      ] )

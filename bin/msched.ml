(* msched — command-line driver for the MorphoSys Complete Data Scheduler.

   Subcommands:
     list        show the bundled workloads
     run         schedule one workload and print metrics / trace
     compare     run Basic vs DS vs CDS on one workload
     alloc       print the Figure 4 allocation trace of the CDS schedule
     dot         emit the kernel graph as Graphviz DOT
     vcd         dump the schedule's activity waveform
     schedulers  list the registered schedulers
     dse         parallel design-space exploration (--jobs/--stats),
                 durable and resumable with --store PATH / --resume
     store       inspect and maintain the on-disk result stores (info/gc)
     fuzz        random-application differential fuzzing against the validator
     table1      reproduce the paper's Table 1 + Figure 6
     figures     reproduce Figures 3 and 5 and the allocator-quality table *)

open Cmdliner

type source = { app : Kernel_ir.Application.t; default_fb : int;
                default_clustering : Kernel_ir.Application.t -> Kernel_ir.Cluster.clustering;
                spec_partition : int list option;
                spec_fb : int option; spec_cm : int option }

let source_of_workload (e : Workloads.Registry.entry) =
  { app = e.Workloads.Registry.app ();
    default_fb = e.Workloads.Registry.default_fb;
    default_clustering = e.Workloads.Registry.clustering;
    spec_partition = None; spec_fb = None; spec_cm = None }

let source_of_file path =
  Result.map
    (fun (spec : Appdsl.spec) ->
      { app = spec.Appdsl.app; default_fb = 1024;
        default_clustering = (fun app -> Kernel_ir.Cluster.singleton_per_kernel app);
        spec_partition = spec.Appdsl.partition;
        spec_fb = spec.Appdsl.fb_set_size; spec_cm = spec.Appdsl.cm_capacity })
    (Result.map_error Diag.to_string (Appdsl.load_file path))

let find_workload name =
  match Workloads.Registry.find name with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown workload %S (try: %s)" name
         (String.concat ", " (Workloads.Registry.names ())))

let resolve_source ~name ~file =
  match (name, file) with
  | _, Some path -> source_of_file path
  | Some name, None -> Result.map source_of_workload (find_workload name)
  | None, None -> Error "give a workload name or --file SPEC"

let ( let* ) = Result.bind

let validate_config config =
  Result.map_error
    (fun msg -> Diag.render (Diag.v Diag.Invalid_config "%s" msg))
    (Morphosys.Config.validate config)

(* The one path from the command line to a scheduling problem. Flags
   override the spec's values, which override the workload's defaults; the
   machine and the partition then go through their own checks
   ([Config.validate], [Cluster.check_partition]), so a bad value is a
   usage error that prints its diagnostic instead of an exception. *)
let problem_of ~name ~file ~fb ~cm ~partition ~auto =
  let* source = resolve_source ~name ~file in
  let app = source.app in
  let pick flag spec default =
    Option.value ~default (if Option.is_some flag then flag else spec)
  in
  let m1 = Morphosys.Config.m1 ~fb_set_size:source.default_fb in
  let config =
    {
      m1 with
      fb_set_size = pick fb source.spec_fb m1.fb_set_size;
      cm_capacity = pick cm source.spec_cm m1.cm_capacity;
    }
  in
  let* () = validate_config config in
  let* clustering =
    match (partition, source.spec_partition, auto) with
    | Some sizes, _, _ | None, Some sizes, _ -> (
      match
        Kernel_ir.Cluster.check_partition
          ~n_kernels:(Kernel_ir.Application.n_kernels app) sizes
      with
      | [] -> Ok (Kernel_ir.Cluster.of_partition app sizes)
      | diags -> Error (String.concat "\n" (List.map Diag.render diags)))
    | None, None, true -> (
      match Cds.Pipeline.auto_clustering config app with
      | Some (clustering, _) -> Ok clustering
      | None -> Error "kernel scheduler found no feasible clustering")
    | None, None, false -> Ok (source.default_clustering app)
  in
  Ok (app, config, clustering)

(* -- arguments ---------------------------------------------------------- *)

let workload_arg =
  let doc = "Workload name (see $(b,msched list))." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let file_arg =
  let doc = "Load the application from a spec file instead (see lib/appdsl)." in
  Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"SPEC" ~doc)

let fb_arg =
  let doc = "Frame-buffer set size in words (default: the paper's size)." in
  Arg.(value & opt (some int) None & info [ "fb" ] ~docv:"WORDS" ~doc)

let cm_arg =
  let doc = "Context-memory capacity in words (default: 2048)." in
  Arg.(value & opt (some int) None & info [ "cm" ] ~docv:"WORDS" ~doc)

let partition_arg =
  let doc =
    "Cluster partition as comma-separated sizes, e.g. $(b,2,2,2) \
     (default: the paper's kernel schedule)."
  in
  Arg.(
    value
    & opt (some (list ~sep:',' int)) None
    & info [ "partition"; "p" ] ~docv:"SIZES" ~doc)

let auto_arg =
  let doc = "Let the kernel scheduler search for the best clustering." in
  Arg.(value & flag & info [ "auto" ] ~doc)

let scheduler_arg =
  let doc =
    "Scheduler to use, by registry name (see $(b,msched schedulers); \
     e.g. $(b,basic), $(b,ds), $(b,cds), $(b,cds-xset))."
  in
  Arg.(value & opt string "cds" & info [ "scheduler"; "s" ] ~docv:"NAME" ~doc)

(* Dispatch a scheduler by registry name on a fresh context; errors are the
   schedulers' own diagnostic strings, plus the registry's "unknown
   scheduler" one for a name nothing registered. *)
let schedule_via_registry ~scheduler config app clustering =
  Result.map_error Diag.to_string
    (Sched.Scheduler_registry.run scheduler
       (Sched.Sched_ctx.make app clustering)
       config)

let trace_arg =
  let doc = "Print the step-by-step timeline." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let gantt_arg =
  let doc = "Print an ASCII Gantt chart of RC array vs DMA channel." in
  Arg.(value & flag & info [ "gantt" ] ~doc)

let no_retention_arg =
  let doc =
    "Disable inter-cluster retention (ablated CDS); only with $(b,cds) or \
     $(b,cds-xset)."
  in
  Arg.(value & flag & info [ "no-retention" ] ~doc)

(* -- commands ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Workloads.Registry.entry) ->
        Printf.printf "%-14s (FB %s)  %s\n" e.Workloads.Registry.name
          (Msutil.Pretty.kbytes e.Workloads.Registry.default_fb)
          e.Workloads.Registry.description)
      Workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled workloads")
    Term.(const run $ const ())

let run_cmd =
  let run name file fb cm partition auto scheduler trace gantt no_retention =
    let cds = scheduler = "cds" || scheduler = "cds-xset" in
    if no_retention && not cds then
      `Error (false, "--no-retention applies only to -s cds and -s cds-xset")
    else
      match problem_of ~name ~file ~fb ~cm ~partition ~auto with
      | Error e -> `Error (false, e)
      | Ok (app, config, clustering) -> (
        let schedule =
          if cds then
            (* CDS's own path: honours --no-retention and prints the
               retention decision before the metrics *)
            Result.map
              (fun (r : Cds.Complete_data_scheduler.result) ->
                Format.printf "%a@." Cds.Retention.pp_decision
                  r.Cds.Complete_data_scheduler.retention;
                r.Cds.Complete_data_scheduler.schedule)
              (Result.map_error Diag.to_string
                 (Cds.Complete_data_scheduler.run_full
                    ~cross_set:(scheduler = "cds-xset")
                    ~retention:(not no_retention)
                    (Sched.Sched_ctx.make app clustering)
                    config))
          else schedule_via_registry ~scheduler config app clustering
        in
        match schedule with
        | Error e -> `Error (false, e)
        | Ok s ->
          Msim.Validate.check_exn s;
          Format.printf "%a@." Sched.Schedule.pp_summary s;
          Format.printf "%a@." Msim.Metrics.pp (Msim.Executor.run config s);
          if trace then print_string (Msim.Trace.render config s);
          if gantt then print_string (Msim.Trace.render_gantt config s);
          `Ok ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Schedule one workload and print metrics")
    Term.(
      ret
        (const run $ workload_arg $ file_arg $ fb_arg $ cm_arg $ partition_arg
       $ auto_arg $ scheduler_arg $ trace_arg $ gantt_arg $ no_retention_arg))

let compare_cmd =
  let run name file fb cm partition auto =
    match problem_of ~name ~file ~fb ~cm ~partition ~auto with
    | Error e -> `Error (false, e)
    | Ok (app, config, clustering) ->
      let c = Cds.Pipeline.run config app clustering in
      let report label = function
        | Ok (s : Cds.Pipeline.scheduled) ->
          Format.printf "%-6s %a@." label Msim.Metrics.pp
            s.Cds.Pipeline.metrics
        | Error e -> Format.printf "%-6s infeasible: %s@." label e
      in
      Format.printf "clusters: %a@." Kernel_ir.Cluster.pp_clustering
        clustering;
      report "basic" c.Cds.Pipeline.basic;
      report "ds" c.Cds.Pipeline.ds;
      report "cds" (Result.map fst c.Cds.Pipeline.cds);
      (match (Cds.Pipeline.improvement c `Ds, Cds.Pipeline.improvement c `Cds) with
      | Some ds, Some cds ->
        Format.printf "improvement over basic: ds %.1f%%, cds %.1f%%@." ds cds
      | _ -> ());
      `Ok ()
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run Basic vs DS vs CDS on one workload")
    Term.(
      ret
        (const run $ workload_arg $ file_arg $ fb_arg $ cm_arg $ partition_arg
       $ auto_arg))

let alloc_cmd =
  let run name file fb cm partition =
    match problem_of ~name ~file ~fb ~cm ~partition ~auto:false with
    | Error e -> `Error (false, e)
    | Ok (app, config, clustering) -> (
      match Cds.Pipeline.allocation_report config app clustering with
      | Error e -> `Error (false, e)
      | Ok r ->
        let labels =
          List.map
            (fun (s : Cds.Allocation_algorithm.snapshot) ->
              s.Cds.Allocation_algorithm.caption)
            r.Cds.Allocation_algorithm.snapshots
        in
        let cells =
          List.map
            (fun (s : Cds.Allocation_algorithm.snapshot) ->
              s.Cds.Allocation_algorithm.cells)
            r.Cds.Allocation_algorithm.snapshots
        in
        print_string
          (Fb_alloc.Layout.render_snapshots ~labels cells);
        Format.printf "splits: %d  failures: %d@."
          r.Cds.Allocation_algorithm.splits
          (List.length r.Cds.Allocation_algorithm.failures);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:"Print the Figure 4 allocation trace of the CDS schedule")
    Term.(
      ret (const run $ workload_arg $ file_arg $ fb_arg $ cm_arg $ partition_arg))

let dot_cmd =
  let clustered_arg =
    Arg.(value & flag & info [ "clustered" ] ~doc:"Group kernels by cluster.")
  in
  let fission_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fission" ] ~docv:"RF" ~doc:"Emit the loop-fission view at RF.")
  in
  let run name file clustered fission =
    match resolve_source ~name ~file with
    | Error e -> `Error (false, e)
    | Ok source ->
      let app = source.app in
      (match fission with
      | Some rf -> print_string (Kernel_ir.Dot.loop_fission_graph app ~rf)
      | None ->
        if clustered then
          print_string
            (Kernel_ir.Dot.clustered_graph app (source.default_clustering app))
        else print_string (Kernel_ir.Dot.kernel_graph app));
      `Ok ()
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the kernel graph as Graphviz DOT")
    Term.(ret (const run $ workload_arg $ file_arg $ clustered_arg $ fission_arg))

let fb_list_arg =
  Arg.(
    value
    & opt (list ~sep:',' int) [ 512; 1024; 2048; 4096; 8192 ]
    & info [ "fb-list" ] ~docv:"SIZES"
        ~doc:"Frame-buffer set sizes to sweep (comma-separated words).")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Print CSV instead of a table.")

let report_points ~csv points =
  if csv then print_string (Report.Dse.to_csv points)
  else begin
    Report.Dse.print_table points;
    (match Report.Dse.best points with
    | Some p ->
      Format.printf "best: %s at FB=%s (%s cycles)@." p.Report.Dse.scheduler
        (Msutil.Pretty.kbytes p.Report.Dse.fb_set_size)
        (match p.Report.Dse.total_cycles with
        | Some c -> string_of_int c
        | None -> "-")
    | None -> Format.printf "no feasible point@.");
    let frontier = Report.Dse.pareto points in
    Format.printf "pareto frontier (FB, cycles):";
    List.iter
      (fun (p : Report.Dse.point) ->
        Format.printf " (%s, %d)"
          (Msutil.Pretty.kbytes p.Report.Dse.fb_set_size)
          (Option.value ~default:0 p.Report.Dse.total_cycles))
      frontier;
    Format.printf "@."
  end

let jobs_arg =
  let doc =
    "Worker domains for the engine pool (0 = one per hardware thread)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let resolve_jobs jobs =
  if jobs <= 0 then Engine.Pool.recommended_jobs () else jobs

(* -- deterministic fault injection (Engine.Faults) ---------------------- *)

(* A rate outside [0, 1] (NaN too) is refused while the command line is
   parsed, so it is a usage error before any store is opened. *)
let fault_rate_arg =
  let rate s =
    match float_of_string_opt s with
    | Some r when r >= 0. && r <= 1. -> Ok r
    | _ -> Error (`Msg (Printf.sprintf "%S is not a rate in [0, 1]" s))
  in
  Arg.(
    value
    & opt (conv (rate, Format.pp_print_float)) 0.
    & info [ "fault-rate" ] ~docv:"R"
        ~doc:
          "Arm deterministic fault injection with per-visit firing \
           probability R in [0,1] (0 disables). Injected faults must \
           surface as structured diagnostics, never as crashes.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"S"
        ~doc:"Seed of the fault plan; firings are reproducible from it.")

let arm_faults ~rate ~seed =
  if rate > 0. then begin
    Engine.Faults.arm (Engine.Faults.plan ~rate ~seed ());
    true
  end
  else false

let report_faults armed =
  if armed then
    Format.eprintf "injected faults fired: %d@."
      (Engine.Faults.injected_count ())

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print per-scheduler timing and cache statistics to stderr.")

let dse_cmd =
  let cm_list_arg =
    Arg.(
      value
      & opt (list ~sep:',' int) [ 2048 ]
      & info [ "cm-list" ] ~docv:"SIZES"
          ~doc:"Context-memory capacities to sweep (comma-separated words).")
  in
  let setup_list_arg =
    Arg.(
      value
      & opt (list ~sep:',' int) [ 0 ]
      & info [ "setup-list" ] ~docv:"CYCLES"
          ~doc:"DMA setup costs to sweep (comma-separated cycles).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"PATH"
          ~doc:
            "Persist every completed design point to a checksummed on-disk \
             store at PATH as it finishes — not at the end — so an \
             interrupted sweep can be resumed with $(b,--resume). Without \
             $(b,--resume), an existing non-empty PATH is refused.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "With $(b,--store): reopen an existing store and recompute only \
             the design points it does not already hold; the sweep identity \
             (workload, clustering, axes, scheduler set) must match the one \
             recorded in the store. The resulting point list is \
             byte-identical to an uninterrupted run.")
  in
  let run name file partition fb_list cm_list setup_list jobs stats csv
      store_path resume fault_rate fault_seed =
    match
      let* problem =
        problem_of ~name ~file ~fb:None ~cm:None ~partition ~auto:false
      in
      (* every axis value passes the machine check before the store is
         opened or the pool started: a bad one is a usage error *)
      let* () =
        Result.map_error Diag.render
          (Report.Dse.check_axes ~fb_list ~cm_list ~setup_list)
      in
      Ok problem
    with
    | Error e -> `Error (false, e)
    | Ok (app, _, clustering) -> (
      let jobs = resolve_jobs jobs in
      let durable =
        match store_path with
        | None -> Ok None
        | Some path ->
          Result.map Option.some
            (Report.Dse.Durable.open_ ~resume ~path ~cm_list ~setup_list
               ~fb_list app clustering)
      in
      match durable with
      | Error d -> `Error (false, Diag.render d)
      | Ok durable ->
        (* On Ctrl-C / TERM, flush the store before dying: every
           persisted point survives and --resume picks up from there.
           (checkpoint is lock-free, so this is safe even if a worker
           domain is mid-append.) *)
        (match durable with
        | Some d ->
          let flush_and_exit code =
            Sys.Signal_handle
              (fun _ ->
                Report.Dse.Durable.checkpoint d;
                exit code)
          in
          Sys.set_signal Sys.sigint (flush_and_exit 130);
          Sys.set_signal Sys.sigterm (flush_and_exit 143)
        | None -> ());
        let armed = arm_faults ~rate:fault_rate ~seed:fault_seed in
        Fun.protect ~finally:Engine.Faults.disarm @@ fun () ->
        let st = if stats then Some (Engine.Stats.create ()) else None in
        let points =
          Report.Dse.sweep ~jobs ?stats:st
            ?store:durable ~cm_list ~setup_list ~fb_list app clustering
        in
        (match durable with
        | Some d ->
          Report.Dse.Durable.checkpoint d;
          List.iter
            (fun w -> Format.eprintf "%s@." (Diag.render w))
            (Report.Dse.Durable.warnings d);
          Report.Dse.Durable.close d
        | None -> ());
        report_points ~csv points;
        (match st with
        | Some st -> Format.eprintf "%a@." Engine.Stats.pp st
        | None -> ());
        report_faults armed;
        (* A sweep in which nothing is feasible produced no sizing
           information: that is a failed exploration, not a success. *)
        (match Report.Dse.all_infeasible_diag points with
        | Some d -> `Error (false, Diag.render d)
        | None -> `Ok ()))
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Parallel design-space exploration: the full (FB, CM, DMA \
          setup, scheduler) cross product on an engine worker pool, \
          optionally persisted ($(b,--store)) and resumable ($(b,--resume))")
    Term.(
      ret
        (const run $ workload_arg $ file_arg $ partition_arg $ fb_list_arg
       $ cm_list_arg $ setup_list_arg $ jobs_arg $ stats_arg $ csv_arg
       $ store_arg $ resume_arg $ fault_rate_arg $ fault_seed_arg))

(* -- store maintenance (Engine.Store) ------------------------------------ *)

let store_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PATH"
        ~doc:"Result-store file (as passed to $(b,msched dse --store)).")

let store_info_cmd =
  let run path =
    match Engine.Store.verify path with
    | Error d -> `Error (false, Diag.render d)
    | Ok r ->
      Printf.printf "store: %s\n" path;
      Printf.printf "  format:           %d, schema %d\n"
        Engine.Store.format_version r.Engine.Store.v_schema;
      Printf.printf "  physical records: %d\n" r.Engine.Store.v_physical_records;
      Printf.printf "  distinct keys:    %d\n" r.Engine.Store.v_distinct_keys;
      Printf.printf "  bytes:            %d (%d intact)\n"
        r.Engine.Store.v_file_bytes r.Engine.Store.v_intact_bytes;
      (match r.Engine.Store.v_corruption with
      | Some d -> Printf.printf "  corruption:       %s\n" (Diag.to_string d)
      | None -> Printf.printf "  corruption:       none\n");
      (match Report.Dse.Durable.inspect path with
      | Ok (identity, completed) ->
        Printf.printf "  sweep identity:   %s\n"
          (match identity with
          | Some id -> String.sub id 0 (min 12 (String.length id)) ^ "…"
          | None -> "<unclaimed>");
        Printf.printf "  completed points: %d\n" completed
      | Error d -> Printf.printf "  unreadable:       %s\n" (Diag.to_string d));
      (match r.Engine.Store.v_corruption with
      | None -> `Ok ()
      | Some d ->
        (* the report first, then the failure that sets the exit status *)
        flush stdout;
        `Error (false, Diag.render d))
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "Summarise a result store: framing, integrity, the sweep identity \
          recorded in its first record and the completed design points; \
          exit nonzero on any corruption")
    Term.(ret (const run $ store_path_arg))

let store_gc_cmd =
  let run path =
    match Engine.Store.gc path with
    | Error d -> `Error (false, Diag.render d)
    | Ok g ->
      Printf.printf "%s: kept %d records, dropped %d; %d -> %d bytes\n" path
        g.Engine.Store.gc_kept g.Engine.Store.gc_dropped_records
        g.Engine.Store.gc_bytes_before g.Engine.Store.gc_bytes_after;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Compact a store to one record per key (atomic: a crash mid-gc \
          leaves the original untouched)")
    Term.(ret (const run $ store_path_arg))

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and maintain the on-disk DSE result stores written by \
          $(b,msched dse --store)")
    [ store_info_cmd; store_gc_cmd ]

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:"Random seed; a run is reproducible by its seed alone.")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"K" ~doc:"Number of random applications.")
  in
  let fb_arg =
    Arg.(
      value & opt int 4096
      & info [ "fb" ] ~docv:"WORDS"
          ~doc:"Frame-buffer set size the random applications are \
                scheduled against.")
  in
  let hostile_arg =
    Arg.(
      value & flag
      & info [ "hostile" ]
          ~doc:
            "Hostile mode: mutate the random applications into malformed \
             ones and assert every failure is a structured diagnostic — \
             any uncaught exception fails the run.")
  in
  let run seed count fb jobs stats hostile fault_rate fault_seed =
    (* the random applications run on M1 with this FB size: a bad one is a
       usage error, not a crash in every task *)
    match
      if count < 0 then Error "--count must be non-negative"
      else
        validate_config
          { (Morphosys.Config.m1 ~fb_set_size:4096) with fb_set_size = fb }
    with
    | Error e -> `Error (false, e)
    | Ok () ->
    let jobs = resolve_jobs jobs in
    let armed = arm_faults ~rate:fault_rate ~seed:fault_seed in
    Fun.protect ~finally:Engine.Faults.disarm @@ fun () ->
    if hostile then begin
      let report =
        Report.Fuzz.run_hostile ~jobs ~fb_set_size:fb
          ~seed ~count ()
      in
      Format.printf "%a@." Report.Fuzz.pp_hostile report;
      report_faults armed;
      if Report.Fuzz.hostile_ok report then `Ok ()
      else
        `Error
          (false, "hostile fuzzing found uncaught exceptions (see above)")
    end
    else begin
      let st = if stats then Some (Engine.Stats.create ()) else None in
      let report =
        Report.Fuzz.run ~jobs ~fb_set_size:fb ?stats:st ~seed ~count ()
      in
      Format.printf "%a@." Report.Fuzz.pp report;
      (match st with
      | Some st -> Format.eprintf "%a@." Engine.Stats.pp st
      | None -> ());
      report_faults armed;
      if Report.Fuzz.ok report then `Ok ()
      else `Error (false, "fuzzing found scheduler bugs (see report above)")
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: schedule random applications with Basic, \
          DS and CDS on the worker pool and referee every schedule with \
          the semantic validator; $(b,--hostile) feeds the stack mutated \
          invalid applications instead")
    Term.(
      ret
        (const run $ seed_arg $ count_arg $ fb_arg $ jobs_arg $ stats_arg
       $ hostile_arg $ fault_rate_arg $ fault_seed_arg))

let table1_cmd =
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Print machine-readable CSV instead of the table.")
  in
  let run csv =
    if csv then
      print_string (Report.Table_report.to_csv (Report.Table_report.run_rows ()))
    else ignore (Report.Table_report.run ())
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce the paper's Table 1 and Figure 6")
    Term.(const run $ csv_arg)

let figures_cmd =
  let run () = Report.Figure_report.run () in
  Cmd.v
    (Cmd.info "figures"
       ~doc:"Reproduce Figures 3 and 5 and the allocator-quality table")
    Term.(const run $ const ())

let vcd_cmd =
  let run name file fb cm partition scheduler =
    match problem_of ~name ~file ~fb ~cm ~partition ~auto:false with
    | Error e -> `Error (false, e)
    | Ok (app, config, clustering) -> (
      match schedule_via_registry ~scheduler config app clustering with
      | Error e -> `Error (false, e)
      | Ok s ->
        print_string (Msim.Vcd.of_schedule config s);
        `Ok ())
  in
  Cmd.v
    (Cmd.info "vcd"
       ~doc:"Dump the schedule's activity waveform as a Value Change Dump")
    Term.(
      ret
        (const run $ workload_arg $ file_arg $ fb_arg $ cm_arg $ partition_arg
       $ scheduler_arg))

let schedulers_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-10s %s\n"
          s.Sched.Scheduler_intf.name
          s.Sched.Scheduler_intf.describe)
      (Sched.Scheduler_registry.all ())
  in
  Cmd.v
    (Cmd.info "schedulers"
       ~doc:"List the registered schedulers (usable with --scheduler)")
    Term.(const run $ const ())

let main =
  let doc = "Complete Data Scheduler for multi-context reconfigurable architectures" in
  Cmd.group
    (Cmd.info "msched" ~version:"1.0.0" ~doc)
    [
      list_cmd; run_cmd; compare_cmd; alloc_cmd; dot_cmd; vcd_cmd;
      schedulers_cmd; dse_cmd; store_cmd; fuzz_cmd;
      table1_cmd; figures_cmd;
    ]

let () = exit (Cmd.eval main)

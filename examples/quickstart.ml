(* Quickstart: describe a small application, schedule it three ways and
   compare.

     dune exec examples/quickstart.exe

   The application is a toy 4-kernel image pipeline; the machine is a
   MorphoSys M1 with a 1K-word frame-buffer set. *)

let () =
  (* 1. Describe the application: kernels in execution order, then the
        data objects flowing between them. Sizes are frame-buffer words per
        iteration; the whole sequence runs [iterations] times. *)
  let app =
    Kernel_ir.Builder.(
      create "quickstart" ~iterations:16
      |> kernel "blur" ~contexts:128 ~cycles:250
      |> kernel "grad" ~contexts:128 ~cycles:250
      |> kernel "thin" ~contexts:160 ~cycles:300
      |> kernel "emit" ~contexts:96 ~cycles:150
      |> input "tile" ~size:256 ~consumers:[ "blur" ]
      |> input "coeffs" ~size:64 ~consumers:[ "blur"; "thin" ]
      |> result "blurred" ~size:256 ~producer:"blur" ~consumers:[ "grad" ]
      |> result "gradient" ~size:128 ~producer:"grad" ~consumers:[ "thin" ]
      |> result "edges" ~size:96 ~producer:"thin" ~consumers:[ "emit" ]
      |> final "features" ~size:64 ~producer:"emit"
      |> build)
  in

  (* 2. Pick the machine and let the kernel scheduler search for the best
        clustering (it evaluates every partition of the kernel sequence
        through a tentative CDS schedule). *)
  let config = Morphosys.Config.m1 ~fb_set_size:1024 in
  let clustering =
    match Cds.Pipeline.auto_clustering config app with
    | Some (clustering, _) -> clustering
    | None -> failwith "no feasible clustering"
  in
  Format.printf "kernel schedule: %a@."
    Kernel_ir.Cluster.pp_clustering clustering;

  (* 3. Run the three schedulers and compare. *)
  let c = Cds.Pipeline.run config app clustering in
  let report name = function
    | Ok (s : Cds.Pipeline.scheduled) ->
      Format.printf "%-6s %a@." name Msim.Metrics.pp s.Cds.Pipeline.metrics
    | Error e -> Format.printf "%-6s infeasible: %s@." name e
  in
  report "basic" c.Cds.Pipeline.basic;
  report "ds" c.Cds.Pipeline.ds;
  report "cds" (Result.map fst c.Cds.Pipeline.cds);
  (match Cds.Pipeline.improvement c `Cds with
  | Some pct ->
    Format.printf "CDS improves execution time by %.1f%% over Basic@." pct
  | None -> ());

  (* 4. Inspect the winning schedule as a timeline. *)
  match c.Cds.Pipeline.cds with
  | Ok (s, r) ->
    Format.printf "reuse factor RF = %d@."
      r.Cds.Complete_data_scheduler.schedule.Sched.Schedule.rf;
    print_string (Msim.Trace.render_gantt config s.Cds.Pipeline.schedule)
  | Error _ -> ()

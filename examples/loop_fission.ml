(* Loop fission and the context reuse factor (paper Figure 3 and section 3):
   sweep the frame-buffer size for a three-kernel chain and watch RF grow,
   amortising context reloads. Emits the Figure 3 graphs as DOT.

     dune exec examples/loop_fission.exe *)

let () =
  let app = Workloads.Synthetic.figure3 () in
  (* one cluster per kernel: the three context sets then compete for a CM
     that cannot hold them all, so reloads happen every round until loop
     fission amortises them *)
  let clustering = Kernel_ir.Cluster.singleton_per_kernel app in
  let ctx = Sched.Sched_ctx.make app clustering in
  Format.printf "Figure 3(a) — kernel scheduling graph:@.%s@."
    (Kernel_ir.Dot.kernel_graph app);

  let header = [ "FB set"; "RF"; "rounds"; "ctx words moved"; "cycles" ] in
  let rows =
    List.filter_map
      (fun fb_set_size ->
        let config =
          Morphosys.Config.make ~fb_set_size ~cm_capacity:320 ()
          (* a small CM so context reloads actually matter *)
        in
        match Cds.Complete_data_scheduler.run_full ctx config with
        | Error _ -> Some [ Msutil.Pretty.kbytes fb_set_size; "-"; "-"; "-"; "-" ]
        | Ok r ->
          let s = r.Cds.Complete_data_scheduler.schedule in
          let m = Msim.Executor.run config s in
          Some
            [
              Msutil.Pretty.kbytes fb_set_size;
              string_of_int
                r.Cds.Complete_data_scheduler.schedule.Sched.Schedule.rf;
              string_of_int (Sched.Schedule.rounds s);
              string_of_int m.Msim.Metrics.context_words_loaded;
              string_of_int m.Msim.Metrics.total_cycles;
            ])
      [ 192; 256; 512; 1024; 2048 ]
  in
  Msutil.Pretty.table ~header ~rows Format.std_formatter;

  let rf_big =
    match
      Cds.Complete_data_scheduler.run_full ctx
        (Morphosys.Config.make ~fb_set_size:1024 ~cm_capacity:320 ())
    with
    | Ok r -> r.Cds.Complete_data_scheduler.schedule.Sched.Schedule.rf
    | Error _ -> 1
  in
  Format.printf "@.Figure 3(b) — after loop fission (RF=%d):@.%s@." rf_big
    (Kernel_ir.Dot.loop_fission_graph app ~rf:rf_big)

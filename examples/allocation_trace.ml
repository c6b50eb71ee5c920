(* Reproduction of the paper's Figure 5: the frame-buffer allocation states
   while the 3-kernel cluster executes with RF = 2 — shared data D13/D37
   placed first from the upper addresses, intermediates r13/r23 from the
   lower addresses, the retained shared result R3,5 surviving the cluster,
   and the final result Rout drained at the end.

     dune exec examples/allocation_trace.exe *)

module AA = Cds.Allocation_algorithm

let () =
  let app = Workloads.Synthetic.figure5 () in
  let clustering = Workloads.Synthetic.figure5_clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:512 in
  let ctx = Sched.Sched_ctx.make app clustering in
  match Cds.Complete_data_scheduler.run_full ctx config with
  | Error d -> failwith (Diag.to_string d)
  | Ok r ->
    Format.printf "RF = %d (as in the figure)@." r.Cds.Complete_data_scheduler.rf;
    Format.printf "%a@." Cds.Retention.pp_decision
      r.Cds.Complete_data_scheduler.retention;
    let focus = Workloads.Synthetic.figure5_focus_cluster in
    let result =
      AA.run
        ~capture:(fun ~cluster_id -> cluster_id = focus)
        config ~analysis:(Sched.Sched_ctx.analysis ctx)
        ~rf:r.Cds.Complete_data_scheduler.rf
        ~retention:r.Cds.Complete_data_scheduler.retention ~round:0
    in
    let labels = List.map (fun s -> s.AA.caption) result.AA.snapshots in
    let cells = List.map (fun s -> s.AA.cells) result.AA.snapshots in
    print_string (Fb_alloc.Layout.render_snapshots ~cell_width:8 ~labels cells);
    Format.printf "@.splits: %d  failures: %d@." result.AA.splits
      (List.length result.AA.failures);
    List.iter
      (fun (set, stats) ->
        Format.printf "set %a end-of-round: %a@." Morphosys.Frame_buffer.pp_set
          set Fb_alloc.Frag_stats.pp stats)
      result.AA.stats

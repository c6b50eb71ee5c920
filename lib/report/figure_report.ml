(* Reproductions of the paper's Figures 3 and 5 and of the section-6
   allocator-quality claims, plus our own ablation study. *)

module AA = Cds.Allocation_algorithm
module T1 = Workloads.Table1

let fmt = Format.std_formatter

(* -- Figure 5: FB allocation snapshots -------------------------------- *)

let figure5 () =
  Format.fprintf fmt
    "@\n== Figure 5: FB allocation for the 3-kernel cluster, RF=2 ==@\n@\n";
  let app = Workloads.Synthetic.figure5 () in
  let clustering = Workloads.Synthetic.figure5_clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:512 in
  let ctx = Sched.Sched_ctx.make app clustering in
  match Cds.Complete_data_scheduler.run_full ctx config with
  | Error d -> Format.fprintf fmt "infeasible: %s@\n" (Diag.to_string d)
  | Ok r ->
    let focus = Workloads.Synthetic.figure5_focus_cluster in
    let result =
      AA.run
        ~capture:(fun ~cluster_id -> cluster_id = focus)
        config ~analysis:(Sched.Sched_ctx.analysis ctx)
        ~rf:r.Cds.Complete_data_scheduler.schedule.Sched.Schedule.rf
        ~retention:r.Cds.Complete_data_scheduler.retention ~round:0
    in
    Format.fprintf fmt "retained: %a@\n"
      Cds.Retention.pp_decision r.Cds.Complete_data_scheduler.retention;
    let snapshots = List.map (fun s -> s.AA.cells) result.AA.snapshots in
    let labels = List.map (fun s -> s.AA.caption) result.AA.snapshots in
    Format.fprintf fmt "%s@\n"
      (Fb_alloc.Layout.render_snapshots ~labels snapshots);
    Format.fprintf fmt "splits needed: %d, placement failures: %d@\n"
      result.AA.splits
      (List.length result.AA.failures)

(* -- Figure 3: loop fission -------------------------------------------- *)

let figure3 () =
  Format.fprintf fmt
    "@\n== Figure 3: kernel scheduling graph under loop fission ==@\n@\n";
  let app = Workloads.Synthetic.figure3 () in
  let config = Morphosys.Config.m1 ~fb_set_size:1024 in
  let clustering = Kernel_ir.Cluster.whole_application app in
  let rf =
    match
      Cds.Complete_data_scheduler.run_full
        (Sched.Sched_ctx.make app clustering)
        config
    with
    | Ok r -> r.Cds.Complete_data_scheduler.schedule.Sched.Schedule.rf
    | Error _ -> 1
  in
  Format.fprintf fmt "(a) plain kernel sequence:@\n%s@\n"
    (Kernel_ir.Dot.kernel_graph app);
  Format.fprintf fmt "(b) after loop fission, RF=%d:@\n%s@\n" rf
    (Kernel_ir.Dot.loop_fission_graph app ~rf)

(* -- Section 6 allocator quality --------------------------------------- *)

let allocator_quality () =
  Format.fprintf fmt
    "@\n== Allocator quality on the 12 experiments (paper section 6) ==@\n@\n";
  let header = [ "exp"; "splits"; "failures"; "peak/bound" ] in
  let rows =
    List.map
      (fun (e : T1.experiment) ->
        match Cds.Pipeline.allocation_report e.T1.config e.T1.app e.T1.clustering with
        | Error err -> [ e.T1.id; "-"; err; "-" ]
        | Ok r ->
          let peak = Msutil.Listx.max_by snd r.AA.peak_words in
          [
            e.T1.id;
            string_of_int r.AA.splits;
            string_of_int (List.length r.AA.failures);
            Printf.sprintf "%d/%d" peak e.T1.config.Morphosys.Config.fb_set_size;
          ])
      (T1.all ())
  in
  Msutil.Pretty.table ~header ~rows fmt;
  Format.fprintf fmt
    "(paper: \"For all examples no data or result has to be split\")@\n"

(* -- Ablations ----------------------------------------------------------- *)

let ablations () =
  Format.fprintf fmt
    "@\n== Ablations: what each CDS ingredient buys (improvement vs Basic, \
     %%) ==@\n@\n";
  let header = [ "exp"; "full CDS"; "no retention"; "cross-set (future work)" ] in
  let improvement e ~retention ~cross_set =
    let c =
      Cds.Pipeline.run ~retention ~cross_set e.T1.config e.T1.app e.T1.clustering
    in
    match Cds.Pipeline.improvement c `Cds with
    | Some pct -> Msutil.Pretty.pct pct
    | None -> "n/a"
  in
  let rows =
    List.map
      (fun (e : T1.experiment) ->
        [
          e.T1.id;
          improvement e ~retention:true ~cross_set:false;
          improvement e ~retention:false ~cross_set:false;
          improvement e ~retention:true ~cross_set:true;
        ])
      (T1.all ())
  in
  Msutil.Pretty.table ~header ~rows fmt;
  (* extension study: MPEG with its constant tables marked invariant *)
  Format.fprintf fmt
    "@\nExtension: MPEG with iteration-invariant tables (qmat, headers):@\n";
  let app = Workloads.Mpeg.app_invariant () in
  let clustering = Workloads.Mpeg.clustering app in
  List.iter
    (fun fb ->
      let config = Morphosys.Config.m1 ~fb_set_size:fb in
      let c = Cds.Pipeline.run config app clustering in
      let pct which =
        match Cds.Pipeline.improvement c which with
        | Some p -> Msutil.Pretty.pct p
        | None -> "-"
      in
      Format.fprintf fmt "  FB=%s: DS %s, CDS %s (paper: 30/45 and 35/50)@\n"
        (Msutil.Pretty.kbytes fb) (pct `Ds) (pct `Cds))
    [ 2048; 3072 ]

(* -- TF-ordering ablation ----------------------------------------------- *)

let tf_ordering () =
  Format.fprintf fmt
    "@\n== Ablation: TF candidate ordering vs naive orders ==@\n@\n";
  let app = Workloads.Synthetic.retention_stress () in
  let clustering = Workloads.Synthetic.retention_stress_clustering app in
  let header = [ "FB set"; "tf"; "fifo"; "smallest"; "largest" ] in
  let avoided fb ranking =
    let config = Morphosys.Config.m1 ~fb_set_size:fb in
    let footprints = Sched.Data_scheduler.footprints app clustering in
    let rf =
      Sched.Reuse_factor.common ~fb_set_size:fb ~footprints
        ~iterations:app.Kernel_ir.Application.iterations
    in
    if rf < 1 then "-"
    else
      let d = Cds.Retention.choose ~ranking config app clustering ~rf in
      string_of_int d.Cds.Retention.avoided_words_per_iteration
  in
  let rows =
    List.map
      (fun fb ->
        Msutil.Pretty.kbytes fb
        :: List.map (avoided fb)
             [ `Tf; `Fifo; `Smallest_first; `Largest_first ])
      [ 600; 640; 700; 768; 1024 ]
  in
  Msutil.Pretty.table ~header ~rows fmt;
  Format.fprintf fmt
    "(external words avoided per iteration under each candidate order; the \
     greedy pass keeps a prefix, so the order matters when memory is tight)@\n"

(* -- DMA setup sensitivity ------------------------------------------------ *)

let dma_setup_sensitivity () =
  Format.fprintf fmt
    "@\n== Sensitivity: per-transfer DMA setup cost (MPEG, FB=2K) ==@\n@\n";
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let header = [ "setup cyc"; "DS%"; "CDS%"; "CDS cycles" ] in
  let rows =
    List.map
      (fun dma_setup_cycles ->
        let config =
          Morphosys.Config.make ~fb_set_size:2048 ~dma_setup_cycles ()
        in
        let c = Cds.Pipeline.run config app clustering in
        let pct which =
          match Cds.Pipeline.improvement c which with
          | Some p -> Msutil.Pretty.pct p
          | None -> "-"
        in
        [
          string_of_int dma_setup_cycles;
          pct `Ds;
          pct `Cds;
          (match c.Cds.Pipeline.cds with
          | Ok (s, _) ->
            string_of_int s.Cds.Pipeline.metrics.Msim.Metrics.total_cycles
          | Error _ -> "-");
        ])
      [ 0; 4; 16; 64 ]
  in
  Msutil.Pretty.table ~header ~rows fmt;
  Format.fprintf fmt
    "(retention also removes whole transfers, so its advantage grows with \
     the per-transfer cost)@\n"

(* -- kernel-scheduler heuristic quality ---------------------------------- *)

let heuristic_quality () =
  Format.fprintf fmt
    "@\n== Kernel-scheduler heuristics vs exhaustive search ==@\n@\n";
  let header = [ "app"; "exhaustive"; "greedy"; "beam(4)"; "greedy gap"; "beam gap" ] in
  let rows =
    List.filter_map
      (fun (name, app, config) ->
        let eval clustering =
          match
            Cds.Complete_data_scheduler.run_full
              (Sched.Sched_ctx.make app clustering)
              config
          with
          | Ok r ->
            Some
              (Sched.Schedule_cost.estimate config
                 r.Cds.Complete_data_scheduler.schedule)
          | Error _ -> None
        in
        match Sched.Kernel_scheduler.best app ~eval with
        | None -> None
        | Some (_, opt) ->
          let result f =
            match f app ~eval with
            | Some (_, c) -> Some c
            | None -> None
          in
          let gap = function
            | Some c ->
              Printf.sprintf "%.1f%%"
                (100. *. float_of_int (c - opt) /. float_of_int opt)
            | None -> "-"
          in
          let show = function Some c -> string_of_int c | None -> "-" in
          let g = result Sched.Kernel_scheduler.greedy in
          let b = result (Sched.Kernel_scheduler.beam ~width:4) in
          Some [ name; string_of_int opt; show g; show b; gap g; gap b ])
      [
        ("E2", Workloads.Synthetic.e2 (), Morphosys.Config.m1 ~fb_set_size:2048);
        ("MPEG", Workloads.Mpeg.app (), Morphosys.Config.m1 ~fb_set_size:2048);
        ("ATR-FI", Workloads.Atr.fi (), Morphosys.Config.m1 ~fb_set_size:1024);
        ("E1", Workloads.Synthetic.e1 (), Morphosys.Config.m1 ~fb_set_size:2048);
      ]
  in
  Msutil.Pretty.table ~header ~rows fmt;
  Format.fprintf fmt
    "(estimated cycles of the clustering each search strategy selects)@\n"

let run () =
  figure5 ();
  figure3 ();
  allocator_quality ();
  ablations ();
  tf_ordering ();
  dma_setup_sensitivity ();
  heuristic_quality ()

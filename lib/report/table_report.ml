(* Reproduction of the paper's Table 1 and Figure 6: run the three
   schedulers on each of the twelve experiments and print measured vs paper
   numbers. *)

let fmt = Format.std_formatter

type row = {
  experiment : Workloads.Table1.experiment;
  comparison : Cds.Pipeline.comparison;
}

let run_rows () =
  List.map
    (fun (e : Workloads.Table1.experiment) ->
      {
        experiment = e;
        comparison = Cds.Pipeline.run e.config e.app e.clustering;
      })
    (Workloads.Table1.all ())

let pct = function Some f -> Msutil.Pretty.pct f | None -> "n/a"
let kwords words = Msutil.Pretty.kbytes words

let table1 rows =
  Format.fprintf fmt "@\n== Table 1: experimental results ==@\n@\n";
  let header =
    [
      "exp"; "N"; "n"; "TDS"; "DT"; "DT(p)"; "RF"; "RF(p)"; "FB"; "DS%";
      "DS%(p)"; "CDS%"; "CDS%(p)";
    ]
  in
  let to_row { experiment = e; comparison = c } =
    let paper = e.Workloads.Table1.paper in
    [
      e.Workloads.Table1.id;
      string_of_int (Kernel_ir.Cluster.n_clusters e.clustering);
      string_of_int
        (Msutil.Listx.max_by List.length
           (List.map
              (fun (cl : Kernel_ir.Cluster.t) -> cl.Kernel_ir.Cluster.kernels)
              e.clustering));
      kwords (Kernel_ir.Application.total_data_words e.app);
      (match Cds.Pipeline.dt_words c with
      | Some w -> kwords w
      | None -> "n/a");
      kwords (int_of_float (paper.dt_kwords *. 1024.));
      (match Cds.Pipeline.ds_rf c with Some rf -> string_of_int rf | None -> "-");
      string_of_int paper.rf;
      kwords e.config.Morphosys.Config.fb_set_size;
      pct (Cds.Pipeline.improvement c `Ds);
      Msutil.Pretty.pct paper.ds_pct;
      pct (Cds.Pipeline.improvement c `Cds);
      Msutil.Pretty.pct paper.cds_pct;
    ]
  in
  Msutil.Pretty.table ~header ~rows:(List.map to_row rows) fmt;
  Format.fprintf fmt
    "('(p)' columns are the paper's numbers; TDS/DT in words/iteration)@\n"

let figure6 rows =
  Format.fprintf fmt
    "@\n== Figure 6: relative execution improvement over Basic (%%) ==@\n@\n";
  List.iter
    (fun { experiment = e; comparison = c } ->
      let ds = Cds.Pipeline.improvement c `Ds in
      let cds = Cds.Pipeline.improvement c `Cds in
      let bar v = Msutil.Pretty.bar ~width:40 (Option.value ~default:0. v) 100. in
      Format.fprintf fmt "%-10s CDS %5s |%s@\n" e.Workloads.Table1.id
        (pct cds) (bar cds);
      Format.fprintf fmt "%-10s DS  %5s |%s@\n@\n" "" (pct ds) (bar ds))
    rows

let infeasibility () =
  Format.fprintf fmt "== MPEG feasibility at FB=1K (paper section 6) ==@\n@\n";
  let app = Workloads.Mpeg.app () in
  let clustering = Workloads.Mpeg.clustering app in
  let config = Morphosys.Config.m1 ~fb_set_size:1024 in
  let ctx = Sched.Sched_ctx.make app clustering in
  (* whether each scheduler runs is all this asks: price, do not build *)
  let describe name =
    match Sched.Scheduler_registry.price name ctx config with
    | Ok _ -> Format.fprintf fmt "%-6s: runs@\n" name
    | Error d ->
      Format.fprintf fmt "%-6s: infeasible (%s)@\n" name (Diag.to_string d)
  in
  List.iter describe Dse.schedulers

let to_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "experiment,clusters,max_kernels,tds_words,dt_words,rf,fb_words,ds_pct,cds_pct,paper_rf,paper_ds_pct,paper_cds_pct\n";
  List.iter
    (fun { experiment = e; comparison = c } ->
      let paper = e.Workloads.Table1.paper in
      let opt_f = function Some v -> Printf.sprintf "%.1f" v | None -> "" in
      let opt_i = function Some v -> string_of_int v | None -> "" in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%s,%s,%d,%s,%s,%d,%.0f,%.0f\n"
           e.Workloads.Table1.id
           (Kernel_ir.Cluster.n_clusters e.clustering)
           (Msutil.Listx.max_by List.length
              (List.map
                 (fun (cl : Kernel_ir.Cluster.t) -> cl.Kernel_ir.Cluster.kernels)
                 e.clustering))
           (Kernel_ir.Application.total_data_words e.app)
           (opt_i (Cds.Pipeline.dt_words c))
           (opt_i (Cds.Pipeline.ds_rf c))
           e.config.Morphosys.Config.fb_set_size
           (opt_f (Cds.Pipeline.improvement c `Ds))
           (opt_f (Cds.Pipeline.improvement c `Cds))
           paper.rf paper.ds_pct paper.cds_pct))
    rows;
  Buffer.contents buf

let run () =
  let rows = run_rows () in
  table1 rows;
  figure6 rows;
  infeasibility ();
  rows

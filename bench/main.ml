(* Benchmark harness. Each section can be run on its own:

     dune exec bench/main.exe                # everything
     dune exec bench/main.exe -- --tables    # Table 1 / Figure 6 only
     dune exec bench/main.exe -- --figures   # Figures 3 and 5, allocator
     dune exec bench/main.exe -- --micro     # bechamel microbenchmarks
     dune exec bench/main.exe -- --dse       # parallel DSE engine
     dune exec bench/main.exe -- --no-micro  # legacy: all but microbenches

   Selector flags compose: `-- --tables --dse` runs exactly those two.
   Per-layer scheduler timings at 20-1000 kernels come from the repository
   benchmark instead: `python3 perfbench/run.py --workload compile-large
   --trace 1`. *)

let () =
  let flag name = Array.exists (fun a -> a = name) Sys.argv in
  let tables = flag "--tables" and figures = flag "--figures" in
  let micro = flag "--micro" and dse = flag "--dse" in
  let any_selected = tables || figures || micro || dse in
  let all = not any_selected in
  if all || tables then
    ignore (Report.Table_report.run () : Report.Table_report.row list);
  if all || figures then Report.Figure_report.run ();
  if (all && not (flag "--no-micro")) || micro then Micro_bench.run ();
  if all || dse then Dse_bench.run ()

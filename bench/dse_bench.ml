(* Engine microbench: the ATR-SLD design-space sweep run sequentially
   and on a full worker pool. Wall-clock, best-of-three — the number an
   architect sizing a machine actually waits on. *)

let sld = Workloads.Atr.sld ()
let sld_clustering = Workloads.Atr.sld_clustering sld
let fb_list = [ 1024; 2048; 4096; 8192; 16384 ]
let cm_list = [ 1024; 2048 ]
let setup_list = [ 0; 16 ]

let sweep ~jobs () =
  Report.Dse.sweep ~jobs ~cm_list ~setup_list ~fb_list sld sld_clustering

let best_of n f =
  let rec go best i =
    if i = 0 then best
    else begin
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      go (min best (Unix.gettimeofday () -. t0)) (i - 1)
    end
  in
  go infinity n

let run () =
  let jobs = Engine.Pool.recommended_jobs () in
  let points = List.length (sweep ~jobs:1 ()) (* also warms the code *) in
  Format.printf
    "@\n== DSE engine bench (ATR-SLD, %d design points, best of 3) ==@\n@\n"
    points;
  let seq = best_of 3 (fun () -> sweep ~jobs:1 ()) in
  let par = best_of 3 (fun () -> sweep ~jobs ()) in
  Format.printf "sequential (jobs=1)   %8.1f ms@\n" (seq *. 1000.);
  Format.printf "pool (jobs=%-2d)        %8.1f ms   %.2fx@\n" jobs
    (par *. 1000.) (seq /. par);
  Format.printf "(%d hardware threads available to this process)@\n" jobs

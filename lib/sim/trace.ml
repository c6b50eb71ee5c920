module Schedule = Sched.Schedule

let render config schedule =
  let metrics, timeline = Executor.run_timed config schedule in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Format.asprintf "%a@\n" Schedule.pp_summary schedule);
  List.iter
    (fun (t : Executor.timed_step) ->
      let what =
        match t.step.Schedule.compute with
        | Some c ->
          Printf.sprintf "Cl%d r%d x%d" c.Schedule.cluster.Kernel_ir.Cluster.id
            c.Schedule.round c.Schedule.iterations
        | None ->
          if t.step.Schedule.note = "" then "dma" else t.step.Schedule.note
      in
      let hidden =
        if t.compute_cost > 0 && t.dma_cost > 0 then
          Printf.sprintf " (%d%% of dma hidden)"
            (100 * min t.dma_cost t.compute_cost / t.dma_cost)
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "[%8d..%8d] %-14s compute=%-8d dma=%-8d%s\n"
           t.start_cycle t.end_cycle what t.compute_cost t.dma_cost hidden))
    timeline;
  Buffer.add_string buf (Format.asprintf "%a@\n" Metrics.pp metrics);
  Buffer.contents buf

(* columns of the chart *)
let width = 72

let render_gantt config schedule =
  let metrics, timeline = Executor.run_timed config schedule in
  let total = max 1 metrics.Metrics.total_cycles in
  let col cycle = cycle * width / total in
  let rc = Bytes.make width ' ' in
  let dma = Bytes.make width ' ' in
  List.iter
    (fun (t : Executor.timed_step) ->
      let s = col t.start_cycle in
      let fill row cost ch =
        if cost > 0 then
          let e = min (width - 1) (col (t.start_cycle + cost)) in
          for i = s to max s (e - 1) do
            if i < width then Bytes.set row i ch
          done
      in
      fill rc t.compute_cost '#';
      fill dma t.dma_cost '=')
    timeline;
  Printf.sprintf "RC  |%s|\nDMA |%s|\n     0%s%d cycles\n" (Bytes.to_string rc)
    (Bytes.to_string dma)
    (String.make (max 1 (width - String.length (string_of_int total))) ' ')
    total

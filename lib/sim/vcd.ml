module Schedule = Sched.Schedule

let rc_id = "!"
let dma_id = "\""
let cluster_id = "#"
let round_id = "$"
let words_id = "%"

let binary ~width v =
  let buf = Bytes.make width '0' in
  let rec fill v i =
    if v > 0 && i >= 0 then begin
      if v land 1 = 1 then Bytes.set buf i '1';
      fill (v lsr 1) (i - 1)
    end
  in
  fill v (width - 1);
  Bytes.to_string buf

let of_schedule config (schedule : Schedule.t) =
  let _, timeline = Executor.run_timed config schedule in
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "$date morphosys-cds $end\n";
  add (Printf.sprintf "$comment schedule %s of %s $end\n"
         schedule.Schedule.scheduler
         schedule.Schedule.app.Kernel_ir.Application.name);
  add "$timescale 1 ns $end\n";
  add "$scope module morphosys $end\n";
  add (Printf.sprintf "$var wire 1 %s rc_busy $end\n" rc_id);
  add (Printf.sprintf "$var wire 1 %s dma_busy $end\n" dma_id);
  add (Printf.sprintf "$var wire 8 %s cluster $end\n" cluster_id);
  add (Printf.sprintf "$var wire 16 %s round $end\n" round_id);
  add (Printf.sprintf "$var wire 32 %s dma_words $end\n" words_id);
  add "$upscope $end\n$enddefinitions $end\n";
  add "$dumpvars\n";
  add (Printf.sprintf "0%s\n0%s\nbx %s\nbx %s\nb0 %s\n$end\n" rc_id dma_id
         cluster_id round_id words_id);
  (* Each step contributes change events at its start (activity rises) and
     at the end of whichever engine finishes first/last. *)
  let events = ref [] in
  let emit time line = events := (time, line) :: !events in
  List.iter
    (fun (t : Executor.timed_step) ->
      let words =
        Msutil.Listx.sum_by
          (fun (tr : Morphosys.Dma.t) -> tr.Morphosys.Dma.words)
          t.step.Schedule.dma
      in
      (match t.step.Schedule.compute with
      | Some c ->
        emit t.start_cycle (Printf.sprintf "1%s" rc_id);
        emit t.start_cycle
          (Printf.sprintf "b%s %s"
             (binary ~width:8 c.Schedule.cluster.Kernel_ir.Cluster.id)
             cluster_id);
        emit t.start_cycle
          (Printf.sprintf "b%s %s" (binary ~width:16 c.Schedule.round) round_id);
        emit (t.start_cycle + t.compute_cost) (Printf.sprintf "0%s" rc_id);
        emit (t.start_cycle + t.compute_cost)
          (Printf.sprintf "bx %s" cluster_id);
        emit (t.start_cycle + t.compute_cost) (Printf.sprintf "bx %s" round_id)
      | None -> ());
      if t.dma_cost > 0 then begin
        emit t.start_cycle (Printf.sprintf "1%s" dma_id);
        emit t.start_cycle
          (Printf.sprintf "b%s %s" (binary ~width:32 words) words_id);
        emit (t.start_cycle + t.dma_cost) (Printf.sprintf "0%s" dma_id)
      end)
    timeline;
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events)
  in
  let current = ref (-1) in
  List.iter
    (fun (time, line) ->
      if time <> !current then begin
        add (Printf.sprintf "#%d\n" time);
        current := time
      end;
      add line;
      add "\n")
    sorted;
  Buffer.contents buf

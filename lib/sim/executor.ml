module Dma = Morphosys.Dma
module Schedule = Sched.Schedule

type timed_step = {
  step : Schedule.step;
  start_cycle : int;
  end_cycle : int;
  dma_cost : int;
  compute_cost : int;
}

let run_timed config (schedule : Schedule.t) =
  let clock = ref 0 in
  let compute_total = ref 0 in
  let dma_total = ref 0 in
  let overlapped = ref 0 in
  let loads = ref 0 and stores = ref 0 and ctx = ref 0 in
  let timeline =
    List.map
      (fun (step : Schedule.step) ->
        let dma_cost = Dma.total_cost config step.dma in
        let compute_cost =
          match step.compute with
          | Some c -> c.Schedule.compute_cycles
          | None -> 0
        in
        let duration = max dma_cost compute_cost in
        let start_cycle = !clock in
        clock := !clock + duration;
        compute_total := !compute_total + compute_cost;
        dma_total := !dma_total + dma_cost;
        if compute_cost > 0 then
          overlapped := !overlapped + min dma_cost compute_cost;
        List.iter
          (fun (tr : Dma.t) ->
            match tr.Dma.kind with
            | Dma.Data { direction = Dma.Load; _ } -> loads := !loads + tr.words
            | Dma.Data { direction = Dma.Store; _ } ->
              stores := !stores + tr.words
            | Dma.Context -> ctx := !ctx + tr.words)
          step.dma;
        { step; start_cycle; end_cycle = !clock; dma_cost; compute_cost })
      schedule.steps
  in
  let metrics =
    {
      Metrics.total_cycles = !clock;
      compute_cycles = !compute_total;
      dma_cycles = !dma_total;
      overlapped_dma_cycles = !overlapped;
      stall_cycles = !clock - !compute_total;
      data_words_loaded = !loads;
      data_words_stored = !stores;
      context_words_loaded = !ctx;
      steps = List.length schedule.steps;
    }
  in
  (metrics, timeline)

let run config schedule = fst (run_timed config schedule)

let cost config schedule =
  let m = run config schedule in
  {
    Sched.Step_builder.cycles = m.Metrics.total_cycles;
    data_words = Metrics.data_words m;
    context_words = m.Metrics.context_words_loaded;
  }

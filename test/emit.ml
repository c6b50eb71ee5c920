(* The code generator: lowers a data/context schedule to the TinyRISC
   control program that realises it on the machine.

   Each schedule step becomes: its DMA transfers (asynchronous), then, for
   a compute step, one context broadcast and one [Execute] per kernel of
   the cluster (loop fission: each kernel runs all the step's iterations
   consecutively), then a [Dma_wait] barrier. *)

module Dma = Morphosys.Dma
module Schedule = Sched.Schedule
module Application = Kernel_ir.Application

let instruction_of_transfer (tr : Dma.t) =
  match tr.Dma.kind with
  | Dma.Context -> Instruction.Ldctxt { label = tr.Dma.label; words = tr.words }
  | Dma.Data { set; direction } -> (
    match Schedule.parse_label tr.Dma.label with
    | None ->
      invalid_arg ("Emit: unparsable data transfer label " ^ tr.Dma.label)
    | Some (name, iter) -> (
      match direction with
      | Dma.Load -> Instruction.Ldfb { set; name; iter; words = tr.words }
      | Dma.Store -> Instruction.Stfb { set; name; iter; words = tr.words }))

let compute_instructions app ~rf (c : Schedule.computation) =
  let set = c.Schedule.cluster.Kernel_ir.Cluster.fb_set in
  let base_iter = c.Schedule.round * rf in
  List.concat_map
    (fun kid ->
      let k = Application.kernel app kid in
      let writes =
        List.concat_map
          (fun (d : Kernel_ir.Data.t) ->
            List.init c.Schedule.iterations (fun i ->
                Instruction.Wrfb
                  { set; name = d.Kernel_ir.Data.name; iter = base_iter + i }))
          (Application.outputs_of app kid)
      in
      Instruction.Cbcast
        { kernel = k.Kernel_ir.Kernel.name; contexts = k.contexts }
      :: Instruction.Execute
           {
             kernel = k.Kernel_ir.Kernel.name;
             cycles = k.exec_cycles;
             iterations = c.Schedule.iterations;
           }
      :: writes)
    c.Schedule.cluster.Kernel_ir.Cluster.kernels

let step_instructions (schedule : Schedule.t) (step : Schedule.step) =
  List.map instruction_of_transfer step.Schedule.dma
  @ (match step.Schedule.compute with
    | Some c ->
      compute_instructions schedule.Schedule.app ~rf:schedule.Schedule.rf c
    | None -> [])
  @ [ Instruction.Dma_wait ]

let program (schedule : Schedule.t) =
  List.concat_map (step_instructions schedule) schedule.Schedule.steps
  @ [ Instruction.Halt ]

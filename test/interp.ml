(* Interpreter for TinyRISC control programs: the timing oracle that the
   codegen tests check against [Msim.Executor], cycle for cycle.

   The model: the core issues asynchronous DMA requests (serviced serially
   by the single channel), broadcasts contexts and runs kernels; [Dma_wait]
   joins the channel. Context loads go through [Context_memory], evicting
   the least-recently-loaded context set when the CM is full; frame-buffer
   residency is tracked by label (capacity is the allocator's concern and
   checked there). *)

module Fb = Morphosys.Frame_buffer
module Cm = Context_memory

type result = {
  cycles : int;  (* wall-clock cycles at [Halt] *)
  dma_busy_cycles : int;
  context_words_loaded : int;
  data_words_loaded : int;
  data_words_stored : int;
  context_evictions : int;  (* CM sets evicted to make room *)
}

(* A machine fault: storing a label that is not resident in the frame
   buffer, a context set larger than the whole CM, or a program without
   [Halt]. *)
exception Fault of string

let fault fmt = Format.kasprintf (fun m -> raise (Fault m)) fmt

type state = {
  config : Morphosys.Config.t;
  cm : Cm.t;
  fb_resident : (Fb.set * string, unit) Hashtbl.t;
  mutable clock : int;
  mutable dma_available : int;  (* time the DMA channel becomes free *)
  mutable dma_busy : int;
  mutable ctx_words : int;
  mutable load_words : int;
  mutable store_words : int;
  mutable evictions : int;
  mutable cm_order : string list;  (* least-recently-loaded first *)
}

let issue_dma state cost =
  let start = max state.dma_available state.clock in
  state.dma_available <- start + cost;
  state.dma_busy <- state.dma_busy + cost

let touch_cm state label =
  state.cm_order <- List.filter (fun l -> l <> label) state.cm_order @ [ label ]

let load_context state ~label ~words =
  if words > Cm.capacity state.cm then
    fault "context set %s (%dw) exceeds the CM (%dw)" label words
      (Cm.capacity state.cm);
  if not (Cm.resident state.cm ~kernel:label) then begin
    while Cm.free_words state.cm < words do
      match state.cm_order with
      | oldest :: rest ->
        Cm.evict state.cm ~kernel:oldest;
        state.cm_order <- rest;
        state.evictions <- state.evictions + 1
      | [] -> fault "CM accounting inconsistency while loading %s" label
    done;
    Cm.load state.cm ~kernel:label ~words
  end;
  touch_cm state label;
  issue_dma state
    (state.config.Morphosys.Config.dma_setup_cycles
    + (words * Morphosys.Dma.cycles_per_word));
  state.ctx_words <- state.ctx_words + words

let data_dma state words =
  issue_dma state
    (state.config.Morphosys.Config.dma_setup_cycles
    + (words * Morphosys.Dma.cycles_per_word))

let step state (insn : Instruction.t) =
  match insn with
  | Instruction.Ldctxt { label; words } -> load_context state ~label ~words
  | Instruction.Ldfb { set; name; iter; words } ->
    let label = Sched.Schedule.instance_label name ~iter in
    Hashtbl.replace state.fb_resident (set, label) ();
    data_dma state words;
    state.load_words <- state.load_words + words
  | Instruction.Stfb { set; name; iter; words } ->
    let label = Sched.Schedule.instance_label name ~iter in
    if not (Hashtbl.mem state.fb_resident (set, label)) then
      fault "store of %s from set %s but it is not resident" label
        (Fb.set_to_string set);
    data_dma state words;
    state.store_words <- state.store_words + words
  | Instruction.Dma_wait -> state.clock <- max state.clock state.dma_available
  | Instruction.Cbcast { contexts; _ } ->
    state.clock <- state.clock + Morphosys.Rc_array.reconfigure_cycles ~contexts
  | Instruction.Execute { kernel; cycles; iterations } ->
    if cycles <= 0 || iterations <= 0 then
      fault "execute %s with non-positive duration" kernel;
    state.clock <- state.clock + (cycles * iterations)
  | Instruction.Wrfb { set; name; iter } ->
    Hashtbl.replace state.fb_resident
      (set, Sched.Schedule.instance_label name ~iter)
      ()
  | Instruction.Halt -> ()

(* Raises [Fault] on a machine fault. *)
let run config program =
  let state =
    {
      config;
      cm = Cm.create config;
      fb_resident = Hashtbl.create 256;
      clock = 0;
      dma_available = 0;
      dma_busy = 0;
      ctx_words = 0;
      load_words = 0;
      store_words = 0;
      evictions = 0;
      cm_order = [];
    }
  in
  let rec go = function
    | [] -> fault "program ended without halt"
    | Instruction.Halt :: _ -> ()
    | insn :: rest ->
      step state insn;
      go rest
  in
  go program;
  {
    cycles = state.clock;
    dma_busy_cycles = state.dma_busy;
    context_words_loaded = state.ctx_words;
    data_words_loaded = state.load_words;
    data_words_stored = state.store_words;
    context_evictions = state.evictions;
  }

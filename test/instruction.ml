(* Control instructions for the TinyRISC processor that orchestrates
   MorphoSys (the paper's Fig. 2 "Code Generator" box), kept as the
   instruction set of the test oracle that replays a schedule under its own
   timing model ([Interp]) and checks it against [Msim.Executor].

   DMA instructions are asynchronous: they enqueue work on the single DMA
   channel and return immediately; [Dma_wait] joins the channel. Data
   transfers name an object instance by data name and global iteration. *)

module Fb = Morphosys.Frame_buffer

type t =
  | Ldctxt of { label : string; words : int }
      (* start a DMA transfer of context words into the context memory *)
  | Ldfb of { set : Fb.set; name : string; iter : int; words : int }
      (* start a DMA transfer from external memory into a frame-buffer set *)
  | Stfb of { set : Fb.set; name : string; iter : int; words : int }
      (* start a DMA transfer from a frame-buffer set to external memory *)
  | Dma_wait  (* stall until every outstanding DMA transfer has finished *)
  | Cbcast of { kernel : string; contexts : int }
      (* broadcast a kernel's context words from the CM into the array *)
  | Execute of { kernel : string; cycles : int; iterations : int }
      (* run the configured kernel for [iterations] consecutive iterations
         of [cycles] RC-array cycles each *)
  | Wrfb of { set : Fb.set; name : string; iter : int }
      (* zero-cost marker: the preceding execution wrote this result block
         into the frame buffer (lets the interpreter check later stores) *)
  | Halt

(* Total words the program's DMA instructions move. *)
let dma_words program =
  Msutil.Listx.sum_by
    (function
      | Ldctxt { words; _ } | Ldfb { words; _ } | Stfb { words; _ } -> words
      | Dma_wait | Cbcast _ | Execute _ | Wrfb _ | Halt -> 0)
    program

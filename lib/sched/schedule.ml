module Dma = Morphosys.Dma

type computation = {
  cluster : Kernel_ir.Cluster.t;
  round : int;
  iterations : int;
  compute_cycles : int;
}

type step = { compute : computation option; dma : Dma.t list; note : string }

type t = {
  scheduler : string;
  app : Kernel_ir.Application.t;
  clustering : Kernel_ir.Cluster.clustering;
  rf : int;
  cross_set : bool;
  steps : step list;
}

(* Number of decimal digits of [m <= 0]. *)
let rec digits m acc = if m > -10 then acc else digits (m / 10) (acc + 1)

(* Writes the digits of [m <= 0] into [b], the last one at [i]. *)
let rec write_digits b m i =
  Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' - (m mod 10)));
  if m <= -10 then write_digits b (m / 10) (i - 1)

(* What [Printf.sprintf "%s@%d" name iter] prints, written straight into
   the one string it returns: one label is made per data transfer, and
   the format interpreter costs several times the label itself. The
   digits are taken from the non-positive side, so [min_int] renders
   too. *)
let instance_label name ~iter =
  let neg = if iter < 0 then iter else -iter in
  let nlen = String.length name and sign = if iter < 0 then 1 else 0 in
  let b = Bytes.create (nlen + 1 + sign + digits neg 1) in
  Bytes.blit_string name 0 b 0 nlen;
  Bytes.set b nlen '@';
  if iter < 0 then Bytes.set b (nlen + 1) '-';
  write_digits b neg (Bytes.length b - 1);
  Bytes.unsafe_to_string b

let parse_label label =
  match String.rindex_opt label '@' with
  | None -> None
  | Some i -> (
    let name = String.sub label 0 i in
    let iter = String.sub label (i + 1) (String.length label - i - 1) in
    match int_of_string_opt iter with
    | Some iter -> Some (name, iter)
    | None -> None)

let sum_words pred t =
  Msutil.Listx.sum_by
    (fun step ->
      Msutil.Listx.sum_by
        (fun (tr : Dma.t) -> if pred tr then tr.words else 0)
        step.dma)
    t.steps

let data_words_loaded t =
  sum_words
    (fun tr ->
      match tr.Dma.kind with
      | Dma.Data { direction = Dma.Load; _ } -> true
      | _ -> false)
    t

let data_words_stored t =
  sum_words
    (fun tr ->
      match tr.Dma.kind with
      | Dma.Data { direction = Dma.Store; _ } -> true
      | _ -> false)
    t

let context_words_loaded t =
  sum_words (fun tr -> Dma.is_context tr.Dma.kind) t

let total_dma_words t = sum_words (fun _ -> true) t

let n_steps t = List.length t.steps

let rounds t =
  let n = t.app.Kernel_ir.Application.iterations in
  (n + t.rf - 1) / t.rf

let iterations_in_round t r =
  let n = t.app.Kernel_ir.Application.iterations in
  let total_rounds = rounds t in
  if r < 0 || r >= total_rounds then
    invalid_arg "Schedule.iterations_in_round: round out of range";
  if r < total_rounds - 1 then t.rf else n - (t.rf * (total_rounds - 1))

let pp_summary fmt t =
  Format.fprintf fmt
    "%s: rf=%d steps=%d loads=%dw stores=%dw ctx=%dw clusters=%a" t.scheduler
    t.rf (n_steps t) (data_words_loaded t) (data_words_stored t)
    (context_words_loaded t) Kernel_ir.Cluster.pp_clustering t.clustering

let pp fmt t =
  pp_summary fmt t;
  Format.fprintf fmt "@\n";
  List.iteri
    (fun i step ->
      (match step.compute with
      | Some c ->
        Format.fprintf fmt "step %d: compute Cl%d round=%d x%d (%d cyc)"
          i c.cluster.Kernel_ir.Cluster.id c.round c.iterations
          c.compute_cycles
      | None -> Format.fprintf fmt "step %d: (dma only)" i);
      if step.note <> "" then Format.fprintf fmt " [%s]" step.note;
      Format.fprintf fmt "@\n";
      List.iter (fun tr -> Format.fprintf fmt "    %a@\n" Dma.pp tr) step.dma)
    t.steps

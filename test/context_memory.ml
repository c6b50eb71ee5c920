(* Mutable model of the MorphoSys context memory (CM), used by [Interp].

   Several kernels' context sets can be resident at once; dynamic
   reconfiguration switches among resident sets without external-memory
   traffic. This module tracks residency and enforces the capacity limit. *)

type t = { capacity : int; table : (string, int) Hashtbl.t }

let create (config : Morphosys.Config.t) =
  { capacity = config.cm_capacity; table = Hashtbl.create 16 }

let capacity t = t.capacity

let used_words t = Hashtbl.fold (fun _ w acc -> acc + w) t.table 0
let free_words t = t.capacity - used_words t

let resident t ~kernel = Hashtbl.mem t.table kernel

(* Loading an already-resident kernel is a no-op (its contexts are reused).
   Raises [Invalid_argument] if the set does not fit the remaining space or
   [words] is not positive. *)
let load t ~kernel ~words =
  if words <= 0 then invalid_arg "Context_memory.load: words must be positive";
  if not (resident t ~kernel) then begin
    if words > free_words t then
      invalid_arg
        (Printf.sprintf
           "Context_memory.load: %s needs %d words but only %d are free"
           kernel words (free_words t));
    Hashtbl.replace t.table kernel words
  end

(* Raises [Not_found] if [kernel] has no resident contexts. *)
let evict t ~kernel =
  if not (Hashtbl.mem t.table kernel) then raise Not_found;
  Hashtbl.remove t.table kernel

(* [(kernel, words)] pairs, sorted by kernel name. *)
let residents t =
  Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

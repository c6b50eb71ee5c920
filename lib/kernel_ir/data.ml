type producer = External | Produced_by of Kernel.id

type t = {
  id : int;
  name : string;
  size : int;
  producer : producer;
  consumers : Kernel.id list;
  final : bool;
  invariant : bool;
}

let check t =
  let e fmt = Diag.v ~data:t.name Diag.Invalid_app fmt in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  List.concat
    [
      (if t.id < 0 then [ e "data %S has negative id %d" t.name t.id ] else []);
      (if t.name = "" then
         [ Diag.v Diag.Invalid_app "data object %d has an empty name" t.id ]
       else []);
      (if t.size <= 0 then [ e "data %S has non-positive size %d" t.name t.size ]
       else if t.size > Morphosys.Config.max_quantity then
         [
           e "data %S has size %d above the bound %d" t.name t.size
             Morphosys.Config.max_quantity;
         ]
       else []);
      (match t.producer with
      | External ->
        if t.consumers = [] then [ e "external data %S has no consumers" t.name ]
        else []
      | Produced_by k ->
        (if t.consumers = [] && not t.final then
           [ e "result %S is dead (no consumer, not final)" t.name ]
         else [])
        @ (if List.mem k t.consumers then
             [ e "kernel %d consumes its own result %S" k t.name ]
           else [])
        @
        if List.exists (fun c -> c < k) t.consumers then
          [ e "a consumer of %S precedes its producer" t.name ]
        else []);
      (if t.invariant && t.producer <> External then
         [ e "produced data %S cannot be iteration-invariant" t.name ]
       else []);
      (if not (sorted t.consumers) then
         [ e "consumers of %S are not sorted and unique" t.name ]
       else []);
    ]

let make ?(invariant = false) ~id ~name ~size ~producer ~consumers ~final () =
  let consumers = List.sort_uniq compare consumers in
  let t = { id; name; size; producer; consumers; final; invariant } in
  match check t with
  | [] -> t
  | d :: _ -> invalid_arg ("Data.make: " ^ Diag.to_string d)

let instance_iter t g = if t.invariant then 0 else g

let is_external t = t.producer = External

let first_consumer t = match t.consumers with [] -> None | c :: _ -> Some c
let last_consumer t = Msutil.Listx.last t.consumers
let consumed_by t k = List.mem k t.consumers

let producer_kernel t =
  match t.producer with External -> None | Produced_by k -> Some k

let pp fmt t =
  let producer_str =
    match t.producer with
    | External -> "ext"
    | Produced_by k -> Printf.sprintf "k%d" k
  in
  Format.fprintf fmt "%s(%dw,%s->%s%s%s)" t.name t.size producer_str
    (String.concat "," (List.map string_of_int t.consumers))
    (if t.final then ",final" else "")
    (if t.invariant then ",invariant" else "")

let equal (a : t) (b : t) = a = b

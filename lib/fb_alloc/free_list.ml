module Interval = Msutil.Interval

type ends = Lower | Upper

type t = { size : int; mutable free : Interval.t list (* ascending, coalesced *) }

let create size =
  if size <= 0 then invalid_arg "Free_list.create: size must be positive";
  { size; free = [ Interval.make ~lo:0 ~hi:size ] }

let size t = t.size
let blocks t = t.free
let free_words t = Msutil.Listx.sum_by Interval.length t.free
let largest_free t = Msutil.Listx.max_by Interval.length t.free

(* Removes [iv] from the free block [b] that contains it, returning the
   remaining free pieces (0, 1 or 2 intervals). *)
let carve (b : Interval.t) (iv : Interval.t) =
  let pieces = ref [] in
  if Interval.(iv.hi) < Interval.(b.hi) then
    pieces := Interval.make ~lo:Interval.(iv.hi) ~hi:Interval.(b.hi) :: !pieces;
  if Interval.(b.lo) < Interval.(iv.lo) then
    pieces := Interval.make ~lo:Interval.(b.lo) ~hi:Interval.(iv.lo) :: !pieces;
  !pieces

let allocate t ~from ~words =
  if words <= 0 then invalid_arg "Free_list.allocate: words must be positive";
  let candidates =
    match from with Lower -> t.free | Upper -> List.rev t.free
  in
  match
    List.find_opt (fun b -> Interval.length b >= words) candidates
  with
  | None -> None
  | Some b ->
    let iv =
      match from with
      | Lower -> Interval.make ~lo:Interval.(b.lo) ~hi:(Interval.(b.lo) + words)
      | Upper -> Interval.make ~lo:(Interval.(b.hi) - words) ~hi:Interval.(b.hi)
    in
    t.free <-
      List.concat_map
        (fun blk -> if Interval.equal blk b then carve b iv else [ blk ])
        t.free
      |> List.sort Interval.compare_lo;
    Some iv

let is_free t iv =
  List.exists
    (fun b -> Interval.(b.lo) <= Interval.(iv.lo) && Interval.(iv.hi) <= Interval.(b.hi))
    t.free

let allocate_at t iv =
  if Interval.is_empty iv then invalid_arg "Free_list.allocate_at: empty";
  if not (is_free t iv) then false
  else begin
    t.free <-
      List.concat_map
        (fun b ->
          if Interval.(b.lo) <= Interval.(iv.lo) && Interval.(iv.hi) <= Interval.(b.hi)
          then carve b iv
          else [ b ])
        t.free
      |> List.sort Interval.compare_lo;
    true
  end

let allocate_split t ~from ~words =
  if words <= 0 then invalid_arg "Free_list.allocate_split: words must be positive";
  if free_words t < words then None
  else begin
    let taken = ref [] in
    let remaining = ref words in
    while !remaining > 0 do
      let chunk =
        match allocate t ~from ~words:!remaining with
        | Some iv -> iv
        | None ->
          (* No single block is large enough: take the first whole block
             from the scan end and keep going. *)
          let b =
            match from, t.free with
            | Lower, b :: _ -> b
            | Upper, free -> List.nth free (List.length free - 1)
            | Lower, [] -> assert false (* free_words >= remaining > 0 *)
          in
          t.free <- List.filter (fun blk -> not (Interval.equal blk b)) t.free;
          b
      in
      taken := chunk :: !taken;
      remaining := !remaining - Interval.length chunk
    done;
    Some (List.rev !taken)
  end

let release t iv =
  if Interval.is_empty iv then invalid_arg "Free_list.release: empty interval";
  if Interval.(iv.lo) < 0 || Interval.(iv.hi) > t.size then
    invalid_arg "Free_list.release: out of bounds";
  List.iter
    (fun b ->
      if Interval.overlaps b iv then
        invalid_arg
          (Format.asprintf "Free_list.release: %a overlaps free block %a"
             Interval.pp iv Interval.pp b))
    t.free;
  let merged, rest =
    List.partition (fun b -> Interval.adjacent b iv) t.free
  in
  let unified = List.fold_left Interval.merge iv merged in
  t.free <- List.sort Interval.compare_lo (unified :: rest)

let invariant_ok t =
  let rec check = function
    | [] -> true
    | [ b ] -> Interval.(b.lo) >= 0 && Interval.(b.hi) <= t.size
    | a :: (b :: _ as rest) ->
      Interval.(a.lo) >= 0
      && Interval.(a.hi) < Interval.(b.lo) (* disjoint AND coalesced *)
      && check rest
  in
  check t.free
  && List.for_all (fun b -> not (Interval.is_empty b)) t.free

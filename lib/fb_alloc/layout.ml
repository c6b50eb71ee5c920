module Interval = Msutil.Interval

type placement = { label : string; intervals : Interval.t list }

type t = {
  free : Free_list.t;
  placed_table : (string, Interval.t list) Hashtbl.t;
  previous : (string, Interval.t list) Hashtbl.t;
      (* last placement of each label, for regularity *)
  mutable split_count : int;
  mutable placement_count : int;
}

let create ~size =
  {
    free = Free_list.create size;
    placed_table = Hashtbl.create 64;
    previous = Hashtbl.create 64;
    split_count = 0;
    placement_count = 0;
  }

let size t = Free_list.size t.free
let free_words t = Free_list.free_words t.free
let largest_free t = Free_list.largest_free t.free
let placed t ~label = Hashtbl.mem t.placed_table label

let placement_of_opt t ~label =
  Option.map
    (fun intervals -> { label; intervals })
    (Hashtbl.find_opt t.placed_table label)

let placements t =
  Hashtbl.fold
    (fun label intervals acc -> { label; intervals } :: acc)
    t.placed_table []
  |> List.sort (fun a b ->
         match (a.intervals, b.intervals) with
         | x :: _, y :: _ -> Interval.compare_lo x y
         | _ -> 0)

let splits t = t.split_count
let placements_done t = t.placement_count

let try_regular t ~label ~words =
  match Hashtbl.find_opt t.previous label with
  | Some prev
    when Msutil.Listx.sum_by Interval.length prev = words
         && List.for_all (Free_list.is_free t.free) prev ->
    List.iter (fun iv -> ignore (Free_list.allocate_at t.free iv)) prev;
    Some prev
  | _ -> None

let place t ~label ~words ~from =
  if words <= 0 then invalid_arg "Layout.place: words must be positive";
  if placed t ~label then
    invalid_arg ("Layout.place: already placed: " ^ label);
  let result =
    match try_regular t ~label ~words with
    | Some ivs -> Some ivs
    | None -> (
      match Free_list.allocate t.free ~from ~words with
      | Some iv -> Some [ iv ]
      | None -> (
        match Free_list.allocate_split t.free ~from ~words with
        | Some ivs ->
          t.split_count <- t.split_count + 1;
          Some ivs
        | None -> None))
  in
  match result with
  | None -> None
  | Some intervals ->
    Hashtbl.replace t.placed_table label intervals;
    Hashtbl.replace t.previous label intervals;
    t.placement_count <- t.placement_count + 1;
    Some { label; intervals }

let release t ~label =
  match Hashtbl.find_opt t.placed_table label with
  | None -> invalid_arg ("Layout.release: not placed: " ^ label)
  | Some intervals ->
    Hashtbl.remove t.placed_table label;
    List.iter (Free_list.release t.free) intervals

let snapshot t =
  let map = Array.make (size t) None in
  Hashtbl.iter
    (fun label intervals ->
      List.iter
        (fun iv ->
          for addr = Interval.(iv.lo) to Interval.(iv.hi) - 1 do
            map.(addr) <- Some label
          done)
        intervals)
    t.placed_table;
  map

let render_snapshots ?(cell_width = 7) ~labels snapshots =
  match snapshots with
  | [] -> ""
  | first :: _ ->
    let words = Array.length first in
    let rows = min words 16 in
    let band r =
      (* address band covered by display row r; row 0 = highest addresses,
         matching the paper's figure which grows downward from the top *)
      let hi = words - (r * words / rows) in
      let lo = words - ((r + 1) * words / rows) in
      (lo, hi)
    in
    let majority_label snap (lo, hi) =
      let counts = Hashtbl.create 8 in
      for a = lo to hi - 1 do
        let key = match snap.(a) with Some l -> l | None -> "" in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      done;
      let best = ref ("", 0) in
      Hashtbl.iter
        (fun k v -> if v > snd !best then best := (k, v))
        counts;
      fst !best
    in
    let clip s =
      if String.length s > cell_width then String.sub s 0 cell_width else s
    in
    let pad s = Printf.sprintf "%-*s" cell_width (clip s) in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (String.make 7 ' ');
    List.iter (fun l -> Buffer.add_string buf (pad l ^ " ")) labels;
    Buffer.add_char buf '\n';
    for r = 0 to rows - 1 do
      let lo, hi = band r in
      Buffer.add_string buf (Printf.sprintf "%5d  " hi);
      List.iter
        (fun snap ->
          let l = majority_label snap (lo, hi) in
          Buffer.add_string buf (pad (if l = "" then "." else l) ^ " "))
        snapshots;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (Printf.sprintf "%5d\n" 0);
    Buffer.contents buf

let invariant_ok t =
  Free_list.invariant_ok t.free
  &&
  let map = Array.make (size t) 0 in
  let overlap = ref false in
  Hashtbl.iter
    (fun _ intervals ->
      List.iter
        (fun iv ->
          for a = Interval.(iv.lo) to Interval.(iv.hi) - 1 do
            if map.(a) <> 0 then overlap := true;
            map.(a) <- map.(a) + 1
          done)
        intervals)
    t.placed_table;
  List.iter
    (fun iv ->
      for a = Interval.(iv.lo) to Interval.(iv.hi) - 1 do
        if map.(a) <> 0 then overlap := true;
        map.(a) <- map.(a) + 1
      done)
    (Free_list.blocks t.free);
  (not !overlap) && Array.for_all (fun c -> c = 1) map

type entry = {
  label : string;
  count : int;
  wall : float;
  cpu : float;
  min_wall : float;
  max_wall : float;
}

type acc = {
  mutable count : int;
  mutable wall : float;
  mutable cpu : float;
  mutable min_wall : float;
  mutable max_wall : float;
}

type t = {
  mutex : Mutex.t;
  table : (string, acc) Hashtbl.t;
  mutable replayed : int;
  mutable recomputed : int;
  mutable quarantined : int;
}

let create () =
  { mutex = Mutex.create (); table = Hashtbl.create 8;
    replayed = 0; recomputed = 0; quarantined = 0 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t ~label ~wall ~cpu =
  with_lock t (fun () ->
      let acc =
        match Hashtbl.find_opt t.table label with
        | Some acc -> acc
        | None ->
          let acc =
            { count = 0; wall = 0.; cpu = 0.;
              min_wall = infinity; max_wall = neg_infinity }
          in
          Hashtbl.add t.table label acc;
          acc
      in
      acc.count <- acc.count + 1;
      acc.wall <- acc.wall +. wall;
      acc.cpu <- acc.cpu +. cpu;
      if wall < acc.min_wall then acc.min_wall <- wall;
      if wall > acc.max_wall then acc.max_wall <- wall)

let time t ~label f =
  let w0 = Unix.gettimeofday () and c0 = Sys.time () in
  let finish () =
    record t ~label ~wall:(Unix.gettimeofday () -. w0) ~cpu:(Sys.time () -. c0)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt

let note_store t ~replayed ~recomputed ~quarantined =
  with_lock t (fun () ->
      t.replayed <- t.replayed + replayed;
      t.recomputed <- t.recomputed + recomputed;
      t.quarantined <- t.quarantined + quarantined)

let entries t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun label (a : acc) es ->
          { label; count = a.count; wall = a.wall; cpu = a.cpu;
            min_wall = (if a.count = 0 then 0. else a.min_wall);
            max_wall = (if a.count = 0 then 0. else a.max_wall) }
          :: es)
        t.table [])
  |> List.sort (fun a b -> compare a.label b.label)

let tasks_run t =
  List.fold_left (fun n (e : entry) -> n + e.count) 0 (entries t)

(* A replayed design point is a store hit, a recomputed one a miss. *)
let store_replayed t = with_lock t (fun () -> t.replayed)
let store_quarantined t = with_lock t (fun () -> t.quarantined)
let cache_hits = store_replayed
let cache_misses t = with_lock t (fun () -> t.recomputed)

let total_wall t =
  List.fold_left (fun s (e : entry) -> s +. e.wall) 0. (entries t)

let ms x = x *. 1000.

let pp ppf t =
  let es = entries t in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "%-10s %6s %10s %10s %10s %10s %10s@,"
    "label" "tasks" "wall ms" "mean ms" "min ms" "max ms" "cpu ms";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-10s %6d %10.2f %10.3f %10.3f %10.3f %10.2f@,"
        e.label e.count (ms e.wall)
        (if e.count = 0 then 0. else ms (e.wall /. float_of_int e.count))
        (ms e.min_wall) (ms e.max_wall) (ms e.cpu))
    es;
  Format.fprintf ppf "total: %d tasks, %.2f ms wall" (tasks_run t)
    (ms (total_wall t));
  let h = cache_hits t and m = cache_misses t in
  if h + m > 0 then
    Format.fprintf ppf "; cache: %d hits / %d misses (%.0f%% hit rate)" h m
      (100. *. float_of_int h /. float_of_int (h + m));
  let r = store_replayed t and q = store_quarantined t in
  if r + q > 0 then
    Format.fprintf ppf "; store: %d replayed / %d quarantined" r q;
  Format.fprintf ppf "@]"

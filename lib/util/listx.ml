let sum l = List.fold_left ( + ) 0 l

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l

let max_by f l = List.fold_left (fun acc x -> max acc (f x)) 0 l

let rec take n l =
  match (n, l) with
  | 0, _ | _, [] -> []
  | n, x :: rest -> x :: take (n - 1) rest

let rec drop n l =
  match (n, l) with
  | 0, l -> l
  | _, [] -> []
  | n, _ :: rest -> drop (n - 1) rest

let rec last = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: rest -> last rest

let index_of p l =
  let rec loop i = function
    | [] -> None
    | x :: rest -> if p x then Some i else loop (i + 1) rest
  in
  loop 0 l

let uniq eq l =
  let rec loop seen = function
    | [] -> List.rev seen
    | x :: rest ->
      if List.exists (eq x) seen then loop seen rest else loop (x :: seen) rest
  in
  loop [] l

let rec compositions n =
  if n < 0 then invalid_arg "Listx.compositions: negative argument"
  else if n = 0 then [ [] ]
  else
    List.concat_map
      (fun first ->
        List.map (fun rest -> first :: rest) (compositions (n - first)))
      (List.init n (fun i -> i + 1))

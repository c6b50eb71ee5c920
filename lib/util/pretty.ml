let kbytes words =
  if words >= 1024 then
    let k = float_of_int words /. 1024. in
    if Float.is_integer k then Printf.sprintf "%.0fK" k
    else Printf.sprintf "%.1fK" k
  else string_of_int words

let pct f = Printf.sprintf "%.0f%%" f

let table ~header ~rows fmt =
  let arity = List.length header in
  List.iter
    (fun row ->
      if List.length row <> arity then
        invalid_arg "Pretty.table: row arity mismatch")
    rows;
  let widths = Array.make arity 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure header;
  List.iter measure rows;
  let print_row row =
    List.iteri
      (fun i cell ->
        let pad = widths.(i) - String.length cell in
        Format.fprintf fmt "%s%s" cell (String.make pad ' ');
        if i < arity - 1 then Format.fprintf fmt "  ")
      row;
    Format.fprintf fmt "@\n"
  in
  print_row header;
  let total = Array.fold_left ( + ) 0 widths + (2 * (arity - 1)) in
  Format.fprintf fmt "%s@\n" (String.make total '-');
  List.iter print_row rows

let bar ~width value max_value =
  let len =
    if max_value <= 0. then 0
    else int_of_float (Float.round (float_of_int width *. value /. max_value))
  in
  String.make (max 0 (min width len)) '#'

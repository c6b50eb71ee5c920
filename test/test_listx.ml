open Msutil

let check_int = Alcotest.(check int)
let check_int_list = Alcotest.(check (list int))

let test_sum () =
  check_int "sum empty" 0 (Listx.sum []);
  check_int "sum" 10 (Listx.sum [ 1; 2; 3; 4 ]);
  check_int "sum_by" 6 (Listx.sum_by String.length [ "a"; "bb"; "ccc" ])

let test_max_by () =
  check_int "max_by empty" 0 (Listx.max_by (fun x -> x) []);
  check_int "max_by" 9 (Listx.max_by (fun x -> x * x) [ -3; 2; 1 ])

let test_take_drop () =
  check_int_list "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  check_int_list "take more than length" [ 1; 2 ] (Listx.take 5 [ 1; 2 ]);
  check_int_list "take zero" [] (Listx.take 0 [ 1 ]);
  check_int_list "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  check_int_list "drop all" [] (Listx.drop 5 [ 1; 2 ])

let test_last () =
  Alcotest.(check (option int)) "last empty" None (Listx.last []);
  Alcotest.(check (option int)) "last" (Some 3) (Listx.last [ 1; 2; 3 ])

let test_index_of () =
  Alcotest.(check (option int))
    "found" (Some 1)
    (Listx.index_of (fun x -> x = 5) [ 4; 5; 6 ]);
  Alcotest.(check (option int))
    "missing" None
    (Listx.index_of (fun x -> x = 9) [ 4; 5; 6 ])

let test_uniq () =
  check_int_list "uniq keeps first" [ 1; 2; 3 ] (Listx.uniq ( = ) [ 1; 2; 1; 3; 2 ])

let test_compositions () =
  check_int "compositions of 0" 1 (List.length (Listx.compositions 0));
  check_int "compositions of 4" 8 (List.length (Listx.compositions 4));
  (* each composition sums to n *)
  List.iter
    (fun c -> check_int "sums to 5" 5 (Listx.sum c))
    (Listx.compositions 5);
  (* 2^(n-1) compositions of n *)
  check_int "count 2^(n-1)" 64 (List.length (Listx.compositions 7));
  Alcotest.check_raises "negative" (Invalid_argument
    "Listx.compositions: negative argument") (fun () ->
      ignore (Listx.compositions (-1)))

let prop_take_drop =
  QCheck.Test.make ~name:"take n @ drop n = id" ~count:200
    QCheck.(pair small_nat (small_list int))
    (fun (n, l) -> Listx.take n l @ Listx.drop n l = l)

let prop_compositions_distinct =
  QCheck.Test.make ~name:"compositions are distinct" ~count:20
    QCheck.(int_range 1 8)
    (fun n ->
      let cs = Listx.compositions n in
      List.length (List.sort_uniq compare cs) = List.length cs)

let tests =
  ( "listx",
    [
      Alcotest.test_case "sum" `Quick test_sum;
      Alcotest.test_case "max_by" `Quick test_max_by;
      Alcotest.test_case "take/drop" `Quick test_take_drop;
      Alcotest.test_case "last" `Quick test_last;
      Alcotest.test_case "index_of" `Quick test_index_of;
      Alcotest.test_case "uniq" `Quick test_uniq;
      Alcotest.test_case "compositions" `Quick test_compositions;
      QCheck_alcotest.to_alcotest prop_take_drop;
      QCheck_alcotest.to_alcotest prop_compositions_distinct;
    ] )

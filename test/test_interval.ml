open Msutil

let iv lo hi = Interval.make ~lo ~hi

let test_make () =
  let t = iv 2 5 in
  Alcotest.(check int) "length" 3 (Interval.length t);
  Alcotest.(check bool) "not empty" false (Interval.is_empty t);
  Alcotest.(check bool) "empty" true (Interval.is_empty (iv 4 4));
  Alcotest.check_raises "hi < lo" (Invalid_argument "Interval.make: hi < lo")
    (fun () -> ignore (iv 3 2))

let test_contains () =
  let t = iv 2 5 in
  Alcotest.(check bool) "lo in" true (Interval.contains t 2);
  Alcotest.(check bool) "hi out (half open)" false (Interval.contains t 5);
  Alcotest.(check bool) "below" false (Interval.contains t 1)

let test_overlaps () =
  Alcotest.(check bool) "overlap" true (Interval.overlaps (iv 0 4) (iv 3 6));
  Alcotest.(check bool) "touching do not overlap" false
    (Interval.overlaps (iv 0 3) (iv 3 6));
  Alcotest.(check bool) "disjoint" false (Interval.overlaps (iv 0 2) (iv 5 6))

let test_adjacent () =
  Alcotest.(check bool) "adjacent" true (Interval.adjacent (iv 0 3) (iv 3 6));
  Alcotest.(check bool) "gap" false (Interval.adjacent (iv 0 2) (iv 3 6))

let test_merge () =
  Alcotest.(check bool) "merge adjacent" true
    (Interval.equal (iv 0 6) (Interval.merge (iv 0 3) (iv 3 6)));
  Alcotest.(check bool) "merge overlap" true
    (Interval.equal (iv 0 6) (Interval.merge (iv 0 4) (iv 2 6)));
  Alcotest.check_raises "disjoint merge"
    (Invalid_argument "Interval.merge: disjoint intervals") (fun () ->
      ignore (Interval.merge (iv 0 1) (iv 3 4)))

let gen_interval =
  QCheck.Gen.(
    let* lo = int_range 0 100 in
    let* len = int_range 0 50 in
    QCheck.Gen.return (iv lo (lo + len)))

let arb_interval =
  QCheck.make ~print:(Format.asprintf "%a" Interval.pp) gen_interval

let prop_merge_covers =
  QCheck.Test.make ~name:"merge covers both operands" ~count:300
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      QCheck.assume (Interval.overlaps a b || Interval.adjacent a b);
      let m = Interval.merge a b in
      Interval.(m.lo) <= Interval.(a.lo)
      && Interval.(m.hi) >= Interval.(b.hi)
      && Interval.length m
         <= Interval.length a + Interval.length b)

let tests =
  ( "interval",
    [
      Alcotest.test_case "make/length" `Quick test_make;
      Alcotest.test_case "contains" `Quick test_contains;
      Alcotest.test_case "overlaps" `Quick test_overlaps;
      Alcotest.test_case "adjacent" `Quick test_adjacent;
      Alcotest.test_case "merge" `Quick test_merge;
      QCheck_alcotest.to_alcotest prop_merge_covers;
    ] )

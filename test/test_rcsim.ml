(* The RC cell's 32-bit context-word format: validation and
   encode/decode round trips. *)

module C = Rcsim.Context

(* -- context encoding --------------------------------------------------- *)

let test_context_make_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> C.make C.Add (C.Reg 4) (C.Reg 0) ~dst:0);
  expect_invalid (fun () -> C.make C.Add (C.Imm 3) (C.Reg 0) ~dst:0);
  expect_invalid (fun () -> C.make C.Add (C.Reg 0) (C.Imm 4000) ~dst:0);
  expect_invalid (fun () -> C.make C.Add (C.Reg 0) (C.Reg 0) ~dst:7)

let test_context_round_trip_hand () =
  let cases =
    [
      C.make C.Add (C.Reg 1) (C.Imm (-7)) ~dst:2;
      C.make ~fb_write:true C.Mac C.Fb_port (C.Imm 2047) ~dst:1;
      C.make C.Abs_diff C.North C.East ~dst:3;
      C.make C.Pass_a C.West (C.Reg 3) ~dst:0;
      C.make C.Shr (C.Reg 2) (C.Imm (-2048)) ~dst:3;
    ]
  in
  List.iter
    (fun ctx ->
      match C.decode (C.encode ctx) with
      | Ok decoded ->
        Alcotest.(check bool)
          (Format.asprintf "%a" C.pp ctx)
          true (C.equal ctx decoded)
      | Error e -> Alcotest.fail e)
    cases

let test_context_decode_rejects () =
  (* opcode 15 is unused *)
  match C.decode 15l with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad opcode accepted"

let gen_context =
  let open QCheck.Gen in
  let gen_src ~allow_imm =
    let base =
      [ map (fun r -> C.Reg r) (int_range 0 3);
        pure C.North; pure C.South; pure C.East; pure C.West; pure C.Fb_port ]
    in
    let choices =
      if allow_imm then map (fun v -> C.Imm v) (int_range (-2048) 2047) :: base
      else base
    in
    oneof choices
  in
  let* op =
    oneofl
      [ C.Add; C.Sub; C.Mul; C.Mac; C.Band; C.Bor; C.Bxor; C.Shl; C.Shr;
        C.Min; C.Max; C.Abs_diff; C.Pass_a ]
  in
  let* src_a = gen_src ~allow_imm:false in
  let* src_b = gen_src ~allow_imm:true in
  let* dst = int_range 0 3 in
  let* fb_write = bool in
  pure (C.make ~fb_write op src_a src_b ~dst)

let prop_context_round_trip =
  QCheck.Test.make ~name:"context words encode/decode round-trip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" C.pp) gen_context) (fun ctx ->
      match C.decode (C.encode ctx) with
      | Ok decoded -> C.equal ctx decoded
      | Error _ -> false)

let tests =
  ( "rcsim",
    [
      Alcotest.test_case "context validation" `Quick test_context_make_validation;
      Alcotest.test_case "context round trip" `Quick test_context_round_trip_hand;
      Alcotest.test_case "context decode rejects" `Quick test_context_decode_rejects;
      QCheck_alcotest.to_alcotest prop_context_round_trip;
    ] )

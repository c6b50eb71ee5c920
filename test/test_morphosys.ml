open Morphosys

(* -- Config ---------------------------------------------------------- *)

let test_config_m1 () =
  let c = Config.m1 ~fb_set_size:2048 in
  Alcotest.(check int) "fb" 2048 c.Config.fb_set_size;
  Alcotest.(check (pair int int)) "8x8 array" (8, 8)
    (c.Config.array_rows, c.Config.array_cols);
  Alcotest.(check bool) "valid" true (Config.validate c = Ok ())

let test_config_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Config.make ~fb_set_size:0 ());
  expect_invalid (fun () -> Config.make ~fb_set_size:1024 ~cm_capacity:(-1) ());
  expect_invalid (fun () ->
      Config.make ~fb_set_size:1024 ~data_cycles_per_word:0 ());
  expect_invalid (fun () -> Config.make ~fb_set_size:1024 ~array_rows:0 ())

(* -- Context memory --------------------------------------------------- *)

let test_cm () =
  let cm = Context_memory.create (Config.make ~fb_set_size:64 ~cm_capacity:100 ()) in
  Context_memory.load cm ~kernel:"k1" ~words:60;
  Alcotest.(check bool) "resident" true (Context_memory.resident cm ~kernel:"k1");
  Alcotest.(check int) "free" 40 (Context_memory.free_words cm);
  (* reloading is a no-op *)
  Context_memory.load cm ~kernel:"k1" ~words:60;
  Alcotest.(check int) "still 40 free" 40 (Context_memory.free_words cm);
  (match Context_memory.load cm ~kernel:"k2" ~words:50 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected capacity rejection");
  Context_memory.load cm ~kernel:"k2" ~words:40;
  Alcotest.(check int) "full" 0 (Context_memory.free_words cm);
  Context_memory.evict cm ~kernel:"k1";
  Alcotest.(check int) "evicted" 60 (Context_memory.free_words cm);
  (match Context_memory.evict cm ~kernel:"k1" with
  | exception Not_found -> ()
  | () -> Alcotest.fail "expected Not_found");
  Alcotest.(check (list (pair string int))) "residents" [ ("k2", 40) ]
    (Context_memory.residents cm)

(* -- DMA --------------------------------------------------------------- *)

let test_dma_cost () =
  let c = Config.make ~fb_set_size:64 ~data_cycles_per_word:2
      ~context_cycles_per_word:3 () in
  let load = Dma.data_load ~set:Frame_buffer.Set_a ~label:"d" ~words:10 in
  let store = Dma.data_store ~set:Frame_buffer.Set_b ~label:"r" ~words:5 in
  let ctx = Dma.context_load ~kernel:"k" ~words:4 in
  Alcotest.(check int) "load cost" 20 (Dma.cost c load);
  Alcotest.(check int) "store cost" 10 (Dma.cost c store);
  Alcotest.(check int) "ctx cost" 12 (Dma.cost c ctx);
  Alcotest.(check int) "total serial" 42 (Dma.total_cost c [ load; store; ctx ]);
  Alcotest.(check bool) "load kind" true
    (load.Dma.kind = Dma.Data { set = Frame_buffer.Set_a; direction = Dma.Load });
  Alcotest.(check bool) "store kind" true
    (store.Dma.kind
    = Dma.Data { set = Frame_buffer.Set_b; direction = Dma.Store });
  match Dma.data_load ~set:Frame_buffer.Set_a ~label:"bad" ~words:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected words validation"

(* -- RC array ----------------------------------------------------------- *)

let test_rc_array () =
  let c = Config.m1 ~fb_set_size:64 in
  Alcotest.(check int) "reconfigure row-parallel" 12
    (Rc_array.reconfigure_cycles c ~contexts:96);
  match Rc_array.reconfigure_cycles c ~contexts:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative contexts"

let tests =
  ( "morphosys",
    [
      Alcotest.test_case "config m1" `Quick test_config_m1;
      Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "context memory" `Quick test_cm;
      Alcotest.test_case "dma cost model" `Quick test_dma_cost;
      Alcotest.test_case "rc array timing" `Quick test_rc_array;
    ] )

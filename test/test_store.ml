(* The durable result store: framing, checksums, quarantine-instead-of-
   fail on every flavour of corruption (down to every single byte), and
   atomic gc. *)

module Store = Engine.Store

let contains = Astring_contains.contains

let tmp_path () =
  let path = Filename.temp_file "msched_store" ".bin" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".quarantine" ]

let with_store ?(schema = 7) f =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  match Store.open_ ~schema path with
  | Error d -> Alcotest.failf "open failed: %s" (Diag.render d)
  | Ok t -> f path t

let reopen ?(schema = 7) path =
  match Store.open_ ~schema path with
  | Error d -> Alcotest.failf "reopen failed: %s" (Diag.render d)
  | Ok t -> t

let contents path =
  match Store.contents path with
  | Error d -> Alcotest.failf "contents failed: %s" (Diag.render d)
  | Ok records -> records

let file_size path = (Unix.stat path).Unix.st_size

let test_roundtrip () =
  with_store @@ fun path t ->
  Alcotest.(check int) "fresh store is empty" 0 (Store.length t);
  Store.append t ~key:"alpha" ~payload:"one";
  Store.append t ~key:"beta" ~payload:"two";
  Store.append t ~key:"gamma" ~payload:(String.make 4096 'x');
  Alcotest.(check int) "three keys" 3 (Store.length t);
  Alcotest.(check (option string)) "find" (Some "two") (Store.find t "beta");
  Alcotest.(check (option string)) "find first" (Some "one")
    (Store.find t "alpha");
  Alcotest.(check (option string)) "absent key" None (Store.find t "delta");
  Store.close t;
  let t = reopen path in
  Alcotest.(check int) "reopen sees three keys" 3 (Store.length t);
  Alcotest.(check (option string)) "large payload survives"
    (Some (String.make 4096 'x'))
    (Store.find t "gamma");
  Alcotest.(check int) "clean reopen has no warnings" 0
    (List.length (Store.warnings t));
  (* the live records are in first-seen key order *)
  Alcotest.(check (list string)) "first-seen order"
    [ "alpha"; "beta"; "gamma" ] (List.map fst (contents path));
  Store.close t

let test_last_record_wins () =
  with_store @@ fun path t ->
  Store.append t ~key:"k" ~payload:"v1";
  Store.append t ~key:"other" ~payload:"o";
  Store.append t ~key:"k" ~payload:"v2";
  Alcotest.(check (option string)) "live value is the latest" (Some "v2")
    (Store.find t "k");
  Alcotest.(check int) "superseding does not add a key" 2 (Store.length t);
  Store.close t;
  let t = reopen path in
  Alcotest.(check (option string)) "latest survives reopen" (Some "v2")
    (Store.find t "k");
  (* superseding keeps the key's first-seen position *)
  Alcotest.(check (list string)) "order is first-seen" [ "k"; "other" ]
    (List.map fst (contents path));
  Store.close t

let test_identical_append_is_noop () =
  with_store @@ fun path t ->
  Store.append t ~key:"k" ~payload:"same";
  Store.checkpoint t;
  let size = file_size path in
  Store.append t ~key:"k" ~payload:"same";
  Store.append t ~key:"k" ~payload:"same";
  Alcotest.(check int) "re-appending the live payload does not grow the file"
    size (file_size path);
  Store.close t

let test_truncated_tail_quarantined () =
  with_store @@ fun path t ->
  Store.append t ~key:"good" ~payload:"kept";
  Store.append t ~key:"torn" ~payload:(String.make 256 'y');
  Store.close t;
  let full = file_size path in
  (* SIGKILL mid-write: the last record loses its checksum trailer *)
  Unix.truncate path (full - 13);
  let t = reopen path in
  let warnings = Store.warnings t in
  Alcotest.(check int) "one quarantine warning" 1 (List.length warnings);
  let w = List.hd warnings in
  Alcotest.(check bool) "STORE_CORRUPT code" true
    (w.Diag.code = Diag.Store_corrupt);
  Alcotest.(check bool) "quarantine is a warning, not an error" false
    (Diag.is_error w);
  Alcotest.(check bool) "quarantine sidecar written" true
    (Sys.file_exists (path ^ ".quarantine"));
  Alcotest.(check (option string)) "intact prefix survives" (Some "kept")
    (Store.find t "good");
  Alcotest.(check (option string)) "torn record is gone" None
    (Store.find t "torn");
  (* the store is fully usable after quarantine: recompute and re-append *)
  Store.append t ~key:"torn" ~payload:"recomputed";
  Store.close t;
  let t = reopen path in
  Alcotest.(check int) "clean after repair" 0 (List.length (Store.warnings t));
  Alcotest.(check (option string)) "repaired value" (Some "recomputed")
    (Store.find t "torn");
  Store.close t

let test_bitflip_quarantined () =
  with_store @@ fun path t ->
  Store.append t ~key:"first" ~payload:"aaaa";
  let boundary = file_size path in
  Store.append t ~key:"second" ~payload:"bbbb";
  Store.close t;
  (* flip one payload byte inside the second record: its MD5 must catch it *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (boundary + 8 + 6 + 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "Z") 0 1);
  Unix.close fd;
  let t = reopen path in
  Alcotest.(check int) "bit flip detected" 1 (List.length (Store.warnings t));
  Alcotest.(check (option string)) "records before the flip survive"
    (Some "aaaa") (Store.find t "first");
  Alcotest.(check (option string)) "flipped record quarantined" None
    (Store.find t "second");
  Store.close t

let test_header_damage_is_fatal () =
  (* a destroyed header means nothing in the file can be trusted *)
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "NOT-A-MSCHED-STORE at all, just bytes";
  close_out oc;
  (match Store.open_ ~schema:7 path with
  | Ok _ -> Alcotest.fail "bad magic must not open"
  | Error d ->
    Alcotest.(check bool) "hard error" true (Diag.is_error d);
    Alcotest.(check bool) "STORE_CORRUPT" true
      (d.Diag.code = Diag.Store_corrupt));
  (* schema mismatch: the file is healthy but belongs to someone else *)
  Sys.remove path;
  (match Store.open_ ~schema:7 path with
  | Ok t -> Store.close t
  | Error d -> Alcotest.failf "create failed: %s" (Diag.render d));
  match Store.open_ ~schema:8 path with
  | Ok _ -> Alcotest.fail "schema mismatch must not open"
  | Error d ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (d.Diag.code = Diag.Sweep_mismatch)

let test_verify_and_gc () =
  with_store @@ fun path t ->
  Store.append t ~key:"k1" ~payload:"v1";
  Store.append t ~key:"k2" ~payload:"v2";
  Store.append t ~key:"k1" ~payload:"v1-new";
  Store.close t;
  (match Store.verify path with
  | Error d -> Alcotest.failf "verify failed: %s" (Diag.render d)
  | Ok r ->
    Alcotest.(check int) "physical records include the superseded one" 3
      r.Store.v_physical_records;
    Alcotest.(check int) "two distinct keys" 2 r.Store.v_distinct_keys;
    Alcotest.(check int) "whole file intact" r.Store.v_file_bytes
      r.Store.v_intact_bytes;
    Alcotest.(check bool) "no corruption" true (r.Store.v_corruption = None));
  let before = file_size path in
  (match Store.gc path with
  | Error d -> Alcotest.failf "gc failed: %s" (Diag.render d)
  | Ok g ->
    Alcotest.(check int) "gc keeps the live records" 2 g.Store.gc_kept;
    Alcotest.(check int) "gc drops the superseded record" 1
      g.Store.gc_dropped_records;
    Alcotest.(check int) "byte accounting" before g.Store.gc_bytes_before;
    Alcotest.(check bool) "compaction shrank the file" true
      (g.Store.gc_bytes_after < before));
  let t = reopen path in
  Alcotest.(check (option string)) "gc kept the live value" (Some "v1-new")
    (Store.find t "k1");
  Alcotest.(check (option string)) "gc kept the other key" (Some "v2")
    (Store.find t "k2");
  Store.close t

let test_contents_readonly () =
  with_store @@ fun path t ->
  Store.append t ~key:"a" ~payload:"1";
  Store.append t ~key:"b" ~payload:"2";
  Store.close t;
  match Store.contents path with
  | Error d -> Alcotest.failf "contents failed: %s" (Diag.render d)
  | Ok kvs ->
    Alcotest.(check (list (pair string string)))
      "live records in order"
      [ ("a", "1"); ("b", "2") ]
      kvs

(* -- codec fuzz ------------------------------------------------------------ *)

(* An identity record plus four short ones, the shape of a small sweep. *)
let fuzz_records =
  [ ("@sweep-identity", "cafe0123456789abcafe0123456789ab"); ("p1", "a");
    ("p2", "bb"); ("p3", "ccc"); ("p4", "dddd") ]

(* Open [damaged] as a store. Damage inside the header must be refused
   with [Error], leaving the file alone; anything else must open with the
   [kept] records wholly before the damage, the bytes from [cut] on moved
   to the quarantine sidecar and the store truncated to [cut]. [open_]
   must never raise. *)
let check_damaged ~what path damaged ~header ~kept ~cut =
  Store_frames.write_file path damaged;
  let q = path ^ ".quarantine" in
  if Sys.file_exists q then Sys.remove q;
  match Store.open_ ~schema:7 path with
  | exception e ->
    Alcotest.failf "%s: open_ raised %s" what (Printexc.to_string e)
  | Error _ when header ->
    Alcotest.(check bool) (what ^ ": nothing quarantined") false
      (Sys.file_exists q);
    Alcotest.(check string) (what ^ ": file left alone") damaged
      (Store_frames.read_file path)
  | Error d -> Alcotest.failf "%s: unexpected error %s" what (Diag.render d)
  | Ok t when header ->
    Store.close t;
    Alcotest.failf "%s: header damage must be refused" what
  | Ok t ->
    let live = contents path in
    let served =
      Store.length t = List.length live
      && List.for_all (fun (key, v) -> Store.find t key = Some v) live
    in
    let warnings = List.length (Store.warnings t) in
    Store.close t;
    let damaged_len = String.length damaged in
    Alcotest.(check (list (pair string string)))
      (what ^ ": records before the damage survive")
      (List.filteri (fun i _ -> i < kept) fuzz_records) live;
    Alcotest.(check bool) (what ^ ": the open store serves exactly those")
      true served;
    Alcotest.(check int) (what ^ ": one warning per quarantine")
      (if cut < damaged_len then 1 else 0)
      warnings;
    Alcotest.(check string) (what ^ ": the sidecar holds exactly the cut bytes")
      (String.sub damaged cut (damaged_len - cut))
      (if Sys.file_exists q then Store_frames.read_file q else "");
    Alcotest.(check int) (what ^ ": store truncated at the cut") cut
      (file_size path)

let test_codec_fuzz () =
  with_store @@ fun path t ->
  List.iter (fun (key, payload) -> Store.append t ~key ~payload) fuzz_records;
  Store.close t;
  let raw = Store_frames.read_file path in
  let bounds = Store_frames.bounds raw in
  let header_len = Store_frames.(Lazy.force header_len) in
  Alcotest.(check int) "the walk finds every record"
    (List.length fuzz_records + 1)
    (Array.length bounds);
  (* damage at [off] keeps the records wholly before it and cuts from the
     start of the record it hits; a cut exactly at a record boundary
     tears nothing and leaves a clean, shorter store *)
  let check ~what damaged off =
    let header = off < header_len in
    let kept = if header then 0 else Store_frames.records_before bounds off in
    check_damaged ~what path damaged ~header ~kept ~cut:bounds.(kept)
  in
  for off = 0 to String.length raw - 1 do
    let flipped = Bytes.of_string raw in
    Bytes.set flipped off
      (Char.chr (Char.code (Bytes.get flipped off) lxor 0xff));
    check ~what:(Printf.sprintf "flip at %d" off) (Bytes.to_string flipped) off;
    (* truncating to nothing leaves an empty file, which is a fresh store *)
    if off > 0 then
      check ~what:(Printf.sprintf "truncate at %d" off) (String.sub raw 0 off)
        off
  done

let tests =
  ( "store",
    [
      Alcotest.test_case "append/find roundtrip across reopen" `Quick
        test_roundtrip;
      Alcotest.test_case "last record per key wins" `Quick
        test_last_record_wins;
      Alcotest.test_case "identical re-append is a no-op" `Quick
        test_identical_append_is_noop;
      Alcotest.test_case "truncated tail is quarantined, not fatal" `Quick
        test_truncated_tail_quarantined;
      Alcotest.test_case "checksum catches a flipped byte" `Quick
        test_bitflip_quarantined;
      Alcotest.test_case "header damage and schema mismatch are fatal" `Quick
        test_header_damage_is_fatal;
      Alcotest.test_case "verify reports, gc compacts atomically" `Quick
        test_verify_and_gc;
      Alcotest.test_case "contents reads without mutating" `Quick
        test_contents_readonly;
      Alcotest.test_case "every flipped or truncated byte is handled" `Quick
        test_codec_fuzz;
    ] )

(* Append-only, checksummed, content-addressed on-disk record log.

   File layout:
     header  = magic (13 bytes) | u32 format_version | u32 schema
     record  = u32 key_len | u32 payload_len | key | payload | md5(body)
   where body is everything before the 16-byte MD5 trailer. The header is
   created atomically (tmp file + rename); records are appended with a
   single full write under a mutex, so a crash — even SIGKILL — can only
   ever leave a truncated *tail*, which [open_] quarantines instead of
   failing. *)

let magic = "MSCHED-STORE\x00"
let format_version = 1
let header_len = String.length magic + 8
let digest_len = 16

let u32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let read_u32 s off = Int32.to_int (String.get_int32_be s off)

(* The on-disk format is spelled once, here: the header, and one record
   frame (body, then the MD5 of the body). Creation, append and gc all
   write through these two. *)
let header schema = magic ^ u32 format_version ^ u32 schema

let frame ~key ~payload =
  let body =
    String.concat ""
      [ u32 (String.length key); u32 (String.length payload); key; payload ]
  in
  body ^ Digest.string body

let corrupt ?(severity = Diag.Warning) fmt = Diag.v ~severity Diag.Store_corrupt fmt

(* -- read-only scanning -------------------------------------------------- *)

type scanned = {
  s_schema : int;
  s_records : (string * string) list;  (** physical records, file order *)
  s_good_bytes : int;  (** offset of the first byte that cannot be trusted *)
  s_total_bytes : int;
  s_corruption : Diag.t option;
}

let scan_string ~path raw =
  let total = String.length raw in
  if total = 0 then
    Error (corrupt ~severity:Diag.Error "store %s is empty (no header)" path)
  else if
    total < header_len
    || not (String.equal (String.sub raw 0 (String.length magic)) magic)
  then
    Error
      (corrupt ~severity:Diag.Error
         "%s is not a store file (bad or truncated magic header)" path)
  else
    let version = read_u32 raw (String.length magic) in
    if version <> format_version then
      Error
        (corrupt ~severity:Diag.Error
           "store %s has format version %d; this build reads version %d" path
           version format_version)
    else begin
      let schema = read_u32 raw (String.length magic + 4) in
      let rec go acc off =
        if off >= total then (List.rev acc, off, None)
        else
          let remaining = total - off in
          let bad msg =
            ( List.rev acc,
              off,
              Some
                (corrupt
                   "store %s: %s at byte %d — quarantining the %d trailing \
                    bytes (the affected points will be recomputed)"
                   path msg off remaining) )
          in
          if remaining < 8 then bad "truncated record header"
          else
            let klen = read_u32 raw off and plen = read_u32 raw (off + 4) in
            if
              klen < 0 || plen < 0
              || klen + plen + 8 + digest_len > remaining
            then bad "truncated or corrupt record"
            else
              let body_len = 8 + klen + plen in
              let body = String.sub raw off body_len in
              let digest = String.sub raw (off + body_len) digest_len in
              if not (String.equal (Digest.string body) digest) then
                bad "record checksum mismatch"
              else
                let key = String.sub raw (off + 8) klen in
                let payload = String.sub raw (off + 8 + klen) plen in
                go ((key, payload) :: acc) (off + body_len + digest_len)
      in
      let records, good, corruption = go [] header_len in
      Ok
        {
          s_schema = schema;
          s_records = records;
          s_good_bytes = good;
          s_total_bytes = total;
          s_corruption = corruption;
        }
    end

let scan path =
  match In_channel.with_open_bin path In_channel.input_all with
  | raw -> Result.map (fun sc -> (sc, raw)) (scan_string ~path raw)
  | exception Sys_error msg ->
    Error (corrupt ~severity:Diag.Error "cannot read store %s: %s" path msg)

(* Live view of a scan: last record per key wins (a re-appended key
   supersedes an earlier — possibly quarantined-in-content — record),
   keys kept in first-seen order. *)
let live_of_records records =
  let table = Hashtbl.create 64 in
  let order =
    List.fold_left
      (fun order (key, payload) ->
        let seen = Hashtbl.mem table key in
        Hashtbl.replace table key payload;
        if seen then order else key :: order)
      [] records
  in
  (table, List.rev order)

(* -- the open store ------------------------------------------------------ *)

type t = {
  fd : Unix.file_descr;
  mutex : Mutex.t;
  table : (string, string) Hashtbl.t;
  mutable warnings : Diag.t list;  (* quarantine diags from open, in order *)
  mutable closed : bool;
}

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let warnings t = t.warnings

let close_durably oc =
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc

(* Atomic replacement: the contents land under the final name only via
   rename, so no reader can ever observe a half-written file. *)
let write_atomically path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  List.iter (output_string oc) contents;
  close_durably oc;
  Sys.rename tmp path

let quarantine_path path = path ^ ".quarantine"

(* Move the untrusted tail bytes aside so nothing is silently destroyed,
   then let the caller truncate the store back to its last good record.
   The sidecar is fsynced first: otherwise a power loss could persist the
   truncation but not the moved bytes. *)
let quarantine_tail path raw ~from =
  let tail = String.sub raw from (String.length raw - from) in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
      (quarantine_path path)
  in
  output_string oc tail;
  close_durably oc

let open_ ~schema path =
  let fresh =
    (not (Sys.file_exists path))
    || (Unix.stat path).Unix.st_size = 0 (* a pre-touched empty file *)
  in
  if fresh then write_atomically path [ header schema ];
  match scan path with
  | Error d -> Error d
  | Ok (sc, raw) ->
    if sc.s_schema <> schema then
      Error
        (Diag.v Diag.Sweep_mismatch
           "store %s has schema version %d; this code reads schema %d — \
            refusing to mix them"
           path sc.s_schema schema)
    else begin
      let warnings =
        match sc.s_corruption with
        | None -> []
        | Some d ->
          quarantine_tail path raw ~from:sc.s_good_bytes;
          [ d ]
      in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      (match sc.s_corruption with
      | Some _ -> Unix.ftruncate fd sc.s_good_bytes
      | None -> ());
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      let table, _ = live_of_records sc.s_records in
      Ok { fd; mutex = Mutex.create (); table; warnings; closed = false }
    end

let length t = with_lock t (fun () -> Hashtbl.length t.table)
let mem t key = with_lock t (fun () -> Hashtbl.mem t.table key)
let find t key = with_lock t (fun () -> Hashtbl.find_opt t.table key)

let write_fully fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let append t ~key ~payload =
  with_lock t (fun () ->
      if t.closed then invalid_arg "Engine.Store.append: store is closed";
      match Hashtbl.find_opt t.table key with
      | Some live when String.equal live payload -> ()  (* already durable *)
      | _ ->
        write_fully t.fd (frame ~key ~payload);
        Hashtbl.replace t.table key payload)

(* Deliberately lock-free: fsync needs no shared state, so a SIGINT/SIGTERM
   handler may call this while worker domains are mid-append without any
   risk of deadlock. A record torn by the subsequent exit is exactly the
   truncated tail [open_] quarantines. *)
let checkpoint t =
  if not t.closed then
    try Unix.fsync t.fd with Unix.Unix_error _ -> ()

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
        (try Unix.close t.fd with Unix.Unix_error _ -> ());
        t.closed <- true
      end)

(* -- offline inspection -------------------------------------------------- *)

type verify_report = {
  v_schema : int;
  v_physical_records : int;
  v_distinct_keys : int;
  v_file_bytes : int;
  v_intact_bytes : int;
  v_corruption : Diag.t option;
}

let verify path =
  Result.map
    (fun (sc, _raw) ->
      let table, _ = live_of_records sc.s_records in
      {
        v_schema = sc.s_schema;
        v_physical_records = List.length sc.s_records;
        v_distinct_keys = Hashtbl.length table;
        v_file_bytes = sc.s_total_bytes;
        v_intact_bytes = sc.s_good_bytes;
        v_corruption = sc.s_corruption;
      })
    (scan path)

let contents path =
  Result.map
    (fun (sc, _raw) ->
      let table, order = live_of_records sc.s_records in
      List.map (fun key -> (key, Hashtbl.find table key)) order)
    (scan path)

type gc_report = {
  gc_kept : int;
  gc_dropped_records : int;
  gc_bytes_before : int;
  gc_bytes_after : int;
}

(* Compaction: rewrite the live view (last record per key, corrupt tail
   dropped) into a tmp file and rename it over the store — the same
   atomicity as creation, so a crash mid-gc leaves the original intact. *)
let gc path =
  match scan path with
  | Error d -> Error d
  | Ok (sc, _raw) ->
    let table, order = live_of_records sc.s_records in
    write_atomically path
      (header sc.s_schema
      :: List.map
           (fun key -> frame ~key ~payload:(Hashtbl.find table key))
           order);
    let after = (Unix.stat path).Unix.st_size in
    Ok
      {
        gc_kept = List.length order;
        gc_dropped_records = List.length sc.s_records - List.length order;
        gc_bytes_before = sc.s_total_bytes;
        gc_bytes_after = after;
      }

(* Byte-level view of a store file for the codec fuzz tests: where its
   header ends and where each record starts, read from the frame lengths
   ([u32 key_len | u32 payload_len | key | payload | 16-byte MD5]). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Measured rather than spelled out: the size of a freshly created store. *)
let header_len =
  lazy
    (let path = Filename.temp_file "msched_header" ".store" in
     Sys.remove path;
     Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
     match Engine.Store.open_ ~schema:0 path with
     | Error d -> failwith (Diag.render d)
     | Ok t ->
       Engine.Store.close t;
       (Unix.stat path).Unix.st_size)

(* [bounds raw] is every record's start offset, in file order, followed by
   the file's length: record [i] spans [bounds.(i)] to [bounds.(i + 1)]. *)
let bounds raw =
  let n = String.length raw in
  let rec go off acc =
    if off >= n then Array.of_list (List.rev (n :: acc))
    else
      let len at = Int32.to_int (String.get_int32_be raw at) in
      go (off + 8 + len off + len (off + 4) + 16) (off :: acc)
  in
  go (Lazy.force header_len) []

(* How many records lie wholly before byte offset [off]: the records a
   cut or a damaged byte at [off] leaves intact. *)
let records_before bounds off =
  Array.fold_left (fun n b -> if b <= off then n + 1 else n) 0 bounds - 1

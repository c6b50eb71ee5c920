(* A minimal reader for the VCD subset [Msim.Vcd.of_schedule] emits: the
   timescale, the [$var] declarations and the value changes in time order,
   so the tests can read an exported waveform back. *)

type change = { time : int; id : string; value : string }

type t = {
  timescale : string;
  signals : (string * string) list;  (** (id, name) declarations *)
  changes : change list;  (** in time order *)
}

let parse text =
  let lines = String.split_on_char '\n' text in
  let timescale = ref "" in
  let signals = ref [] in
  let changes = ref [] in
  let time = ref 0 in
  let error = ref None in
  List.iter
    (fun line ->
      let line = String.trim line in
      if !error <> None || line = "" then ()
      else if String.length line > 10 && String.sub line 0 10 = "$timescale"
      then
        timescale :=
          String.trim
            (String.concat " "
               (List.filter
                  (fun t -> t <> "$timescale" && t <> "$end")
                  (String.split_on_char ' ' line)))
      else if String.length line > 4 && String.sub line 0 4 = "$var" then begin
        match String.split_on_char ' ' line with
        | [ "$var"; "wire"; _width; id; name; "$end" ] ->
          signals := (id, name) :: !signals
        | _ -> error := Some ("bad $var line: " ^ line)
      end
      else if line.[0] = '#' then begin
        match int_of_string_opt (String.sub line 1 (String.length line - 1)) with
        | Some t -> time := t
        | None -> error := Some ("bad timestamp: " ^ line)
      end
      else if line.[0] = '0' || line.[0] = '1' then
        changes :=
          {
            time = !time;
            id = String.sub line 1 (String.length line - 1);
            value = String.make 1 line.[0];
          }
          :: !changes
      else if line.[0] = 'b' then begin
        match String.index_opt line ' ' with
        | Some i ->
          changes :=
            {
              time = !time;
              id = String.sub line (i + 1) (String.length line - i - 1);
              value = String.sub line 1 (i - 1);
            }
            :: !changes
        | None -> error := Some ("bad vector change: " ^ line)
      end
      else () (* headers, $dumpvars, $end, comments *))
    lines;
  match !error with
  | Some e -> Error e
  | None ->
    Ok
      {
        timescale = !timescale;
        signals = List.rev !signals;
        changes = List.rev !changes;
      }

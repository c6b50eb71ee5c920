type code =
  | Fb_overflow
  | Cm_overflow
  | No_feasible_rf
  | Invalid_app
  | Invalid_clustering
  | Invalid_config
  | Sim_divergence
  | Task_crashed
  | Fault_injected
  | Store_corrupt
  | Sweep_mismatch

type severity = Warning | Error

type t = {
  code : code;
  severity : severity;
  scheduler : string option;
  cluster : int option;
  kernel : string option;
  data : string option;
  message : string;
  backtrace : string option;
}

let v ?(severity = Error) ?scheduler ?cluster ?kernel ?data ?backtrace code fmt
    =
  Format.kasprintf
    (fun message ->
      { code; severity; scheduler; cluster; kernel; data; message; backtrace })
    fmt

let code_name = function
  | Fb_overflow -> "FB_OVERFLOW"
  | Cm_overflow -> "CM_OVERFLOW"
  | No_feasible_rf -> "NO_FEASIBLE_RF"
  | Invalid_app -> "INVALID_APP"
  | Invalid_clustering -> "INVALID_CLUSTERING"
  | Invalid_config -> "INVALID_CONFIG"
  | Sim_divergence -> "SIM_DIVERGENCE"
  | Task_crashed -> "TASK_CRASHED"
  | Fault_injected -> "FAULT_INJECTED"
  | Store_corrupt -> "STORE_CORRUPT"
  | Sweep_mismatch -> "SWEEP_MISMATCH"

let is_error t = t.severity = Error
let with_scheduler scheduler t = { t with scheduler = Some scheduler }

let to_string t =
  match t.scheduler with
  | Some s -> s ^ ": " ^ t.message
  | None -> t.message

let render t =
  let b = Buffer.create 128 in
  Buffer.add_char b '[';
  Buffer.add_string b (match t.severity with Error -> "E:" | Warning -> "W:");
  Buffer.add_string b (code_name t.code);
  (match t.scheduler with
  | Some s ->
    Buffer.add_char b ' ';
    Buffer.add_string b s
  | None -> ());
  Buffer.add_string b "] ";
  Buffer.add_string b t.message;
  let ctx =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "cluster %d") t.cluster;
        Option.map (Printf.sprintf "kernel %S") t.kernel;
        Option.map (Printf.sprintf "data %S") t.data;
      ]
  in
  if ctx <> [] then begin
    Buffer.add_string b " (";
    Buffer.add_string b (String.concat ", " ctx);
    Buffer.add_char b ')'
  end;
  (match t.backtrace with
  | Some bt when String.trim bt <> "" ->
    Buffer.add_char b '\n';
    Buffer.add_string b (String.trim bt)
  | _ -> ());
  Buffer.contents b

let of_exn ?scheduler ?backtrace = function
  | Invalid_argument msg -> v ?scheduler ?backtrace Invalid_app "%s" msg
  | Not_found -> v ?scheduler ?backtrace Invalid_app "lookup failed: Not_found"
  | e ->
    v ?scheduler ?backtrace Task_crashed "uncaught exception: %s"
      (Printexc.to_string e)

let guard ?scheduler f =
  match f () with
  | x -> Ok x
  | exception e ->
    let backtrace = Printexc.get_backtrace () in
    Error (of_exn ?scheduler ~backtrace e)

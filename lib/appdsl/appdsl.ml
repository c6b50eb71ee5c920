module B = Kernel_ir.Builder

type spec = {
  app : Kernel_ir.Application.t;
  partition : int list option;
  fb_set_size : int option;
  cm_capacity : int option;
}

type accum = {
  mutable builder : B.t option;
  kernels : (string, int) Hashtbl.t;
      (** kernel names declared so far, with their ids (declaration order) *)
  data_names : (string, unit) Hashtbl.t;  (** data names declared so far *)
  mutable uses : (int * string option * string list * Kernel_ir.Data.t) list;
      (** line, producer and consumers a data line names, and the line's
          datum with its kernels still unresolved; latest first *)
  mutable acc_partition : (int * int list) option;  (** line, sizes *)
  mutable acc_fb : int option;
  mutable acc_cm : int option;
}

let tokens line =
  (* strip comments, split on whitespace *)
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let int_tok what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "expected an integer for %s, got %S" what s)

let ( let* ) = Result.bind

(* Split [-> c1 c2 ...] off a token list. *)
let split_arrow toks =
  let rec loop before = function
    | "->" :: after -> Ok (List.rev before, after)
    | t :: rest -> loop (t :: before) rest
    | [] -> Error "missing '->'"
  in
  loop [] toks

let no_diag = function [] -> Ok () | d :: _ -> Error (Diag.to_string d)

(* A line's values are judged by the model's own checks, each rule's one
   statement, on a probe that is valid in everything else: a one-kernel
   application for [iterations], an external datum for a size. *)
let probe_kernel =
  { Kernel_ir.Kernel.id = 0; name = "k"; contexts = 1; exec_cycles = 1 }

let iterations_check iterations =
  no_diag
    (Kernel_ir.Application.check ~kernels:[ probe_kernel ] ~data:[]
       ~iterations)

let probe_data ?(invariant = false) ?(final = false) name size =
  {
    Kernel_ir.Data.id = 0;
    name;
    size;
    producer = External;
    consumers = [ 0 ];
    final;
    invariant;
  }

let size_check name size = no_diag (Kernel_ir.Data.check (probe_data name size))

(* A machine size is checked by [Config.validate], its one statement, on
   the M1 machine with just that field replaced. *)
let machine_check update =
  Morphosys.Config.validate (update (Morphosys.Config.m1 ~fb_set_size:1024))

let with_builder acc f =
  match acc.builder with
  | None -> Error "the first directive must be 'app NAME iterations N'"
  | Some b ->
    let* b' = f b in
    acc.builder <- Some b';
    Ok ()

(* A data line may name a kernel declared further down, so its kernel
   names, and the rules that depend on kernel order (a consumer follows
   its producer), are checked once the whole spec is read
   ([data_error]). Its name is checked at once. *)
let uses acc lineno ?producer ~consumers datum b =
  let name = datum.Kernel_ir.Data.name in
  if Hashtbl.mem acc.data_names name then
    Error (Printf.sprintf "duplicate data name %S" name)
  else begin
    Hashtbl.replace acc.data_names name ();
    acc.uses <- (lineno, producer, consumers, datum) :: acc.uses;
    Ok b
  end

(* The first data line, in spec order, that names an unknown kernel or
   fails [Data.check] once its kernel names are resolved to ids. *)
let data_error acc =
  List.find_map
    (fun (lineno, producer, consumers, datum) ->
      let at msg = Some (Printf.sprintf "line %d: %s" lineno msg) in
      match
        List.find_opt
          (fun k -> not (Hashtbl.mem acc.kernels k))
          (Option.to_list producer @ consumers)
      with
      | Some k -> at (Printf.sprintf "unknown kernel %S" k)
      | None -> (
        let id = Hashtbl.find acc.kernels in
        let datum =
          {
            datum with
            Kernel_ir.Data.producer =
              (match producer with
              | None -> Kernel_ir.Data.External
              | Some k -> Kernel_ir.Data.Produced_by (id k));
            consumers = List.sort_uniq compare (List.map id consumers);
          }
        in
        match Kernel_ir.Data.check datum with
        | [] -> None
        | d :: _ -> at (Diag.to_string d)))
    (List.rev acc.uses)

let parse_directive acc lineno toks =
  match toks with
  | [] -> Ok ()
  | "app" :: name :: "iterations" :: n :: [] ->
    if acc.builder <> None then Error "duplicate 'app' directive"
    else
      let* iterations = int_tok "iterations" n in
      let* () = iterations_check iterations in
      acc.builder <- Some (B.create name ~iterations);
      Ok ()
  | "kernel" :: name :: "contexts" :: c :: "cycles" :: cy :: [] ->
    with_builder acc (fun b ->
        let* contexts = int_tok "contexts" c in
        let* cycles = int_tok "cycles" cy in
        (* the builder assigns the id, so any valid one judges just this
           line's values *)
        let* () =
          no_diag
            (Kernel_ir.Kernel.check
               { probe_kernel with name; contexts; exec_cycles = cycles })
        in
        if Hashtbl.mem acc.kernels name then
          Error (Printf.sprintf "duplicate kernel name %S" name)
        else begin
          Hashtbl.replace acc.kernels name (Hashtbl.length acc.kernels);
          Ok (B.kernel name ~contexts ~cycles b)
        end)
  | "input" :: name :: "size" :: s :: rest ->
    with_builder acc (fun b ->
        let* size = int_tok "size" s in
        let* () = size_check name size in
        let invariant, rest =
          match rest with
          | "invariant" :: rest -> (true, rest)
          | rest -> (false, rest)
        in
        let* before, consumers = split_arrow rest in
        if before <> [] then Error "unexpected tokens before '->'"
        else if consumers = [] then Error "input needs at least one consumer"
        else
          uses acc lineno ~consumers
            (probe_data ~invariant name size)
            (B.input ~invariant name ~size ~consumers b))
  | "result" :: name :: "size" :: s :: "from" :: producer :: rest ->
    with_builder acc (fun b ->
        let* size = int_tok "size" s in
        let* () = size_check name size in
        let* before, after = split_arrow rest in
        if before <> [] then Error "unexpected tokens before '->'"
        else
          let final, consumers =
            match List.rev after with
            | "final" :: rev_consumers -> (true, List.rev rev_consumers)
            | _ -> (false, after)
          in
          if consumers = [] then
            Error "result needs at least one consumer (or use 'final')"
          else
            uses acc lineno ~producer ~consumers
              (probe_data ~final name size)
              (B.result ~final name ~size ~producer ~consumers b))
  | "final" :: name :: "size" :: s :: "from" :: producer :: [] ->
    with_builder acc (fun b ->
        let* size = int_tok "size" s in
        let* () = size_check name size in
        uses acc lineno ~producer ~consumers:[]
          (probe_data ~final:true name size)
          (B.final name ~size ~producer b))
  | "partition" :: sizes ->
    if sizes = [] then Error "partition needs at least one size"
    else
      let* sizes =
        List.fold_left
          (fun acc' s ->
            let* l = acc' in
            let* n = int_tok "partition size" s in
            Ok (n :: l))
          (Ok []) sizes
      in
      acc.acc_partition <- Some (lineno, List.rev sizes);
      Ok ()
  | [ "fb"; n ] ->
    let* words = int_tok "fb" n in
    let* () = machine_check (fun c -> { c with fb_set_size = words }) in
    acc.acc_fb <- Some words;
    Ok ()
  | [ "cm"; n ] ->
    let* words = int_tok "cm" n in
    let* () = machine_check (fun c -> { c with cm_capacity = words }) in
    acc.acc_cm <- Some words;
    Ok ()
  | first :: _ -> Error (Printf.sprintf "unrecognised directive %S" first)

(* A directive's failure is classified by what the directive declares. *)
let code_of_directive = function
  | ("fb" | "cm") :: _ -> Diag.Invalid_config
  | "partition" :: _ -> Diag.Invalid_clustering
  | _ -> Diag.Invalid_app

let parse text =
  let acc =
    {
      builder = None;
      kernels = Hashtbl.create 16;
      data_names = Hashtbl.create 16;
      uses = [];
      acc_partition = None;
      acc_fb = None;
      acc_cm = None;
    }
  in
  let lines = String.split_on_char '\n' text in
  let rec loop lineno = function
    | [] -> Ok ()
    | line :: rest -> (
      let toks = tokens line in
      match parse_directive acc lineno toks with
      | Ok () -> loop (lineno + 1) rest
      | Error msg ->
        Error (Diag.v (code_of_directive toks) "line %d: %s" lineno msg))
  in
  let* () = loop 1 lines in
  let* () =
    match data_error acc with
    | Some msg -> Error (Diag.v Diag.Invalid_app "%s" msg)
    | None -> Ok ()
  in
  match acc.builder with
  | None ->
    Error (Diag.v Diag.Invalid_app "empty specification (no 'app' directive)")
  | Some b -> (
    match B.build b with
    | exception Invalid_argument msg -> Error (Diag.v Diag.Invalid_app "%s" msg)
    | app -> (
      let fb_set_size = acc.acc_fb and cm_capacity = acc.acc_cm in
      let spec partition = Ok { app; partition; fb_set_size; cm_capacity } in
      match acc.acc_partition with
      | None -> spec None
      | Some (lineno, sizes) -> (
        let n_kernels = Kernel_ir.Application.n_kernels app in
        match Kernel_ir.Cluster.check_partition ~n_kernels sizes with
        | [] -> spec (Some sizes)
        | d :: _ ->
          Error
            (Diag.v Diag.Invalid_clustering "line %d: %s" lineno
               (Diag.to_string d)))))

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error (Diag.v Diag.Invalid_app "%s" msg)

let render spec =
  let buf = Buffer.create 1024 in
  let app = spec.app in
  Buffer.add_string buf
    (Printf.sprintf "app %s iterations %d\n\n" app.Kernel_ir.Application.name
       app.Kernel_ir.Application.iterations);
  Array.iter
    (fun (k : Kernel_ir.Kernel.t) ->
      Buffer.add_string buf
        (Printf.sprintf "kernel %s contexts %d cycles %d\n"
           k.Kernel_ir.Kernel.name k.contexts k.exec_cycles))
    app.Kernel_ir.Application.kernels;
  Buffer.add_char buf '\n';
  let kernel_name id =
    (Kernel_ir.Application.kernel app id).Kernel_ir.Kernel.name
  in
  List.iter
    (fun (d : Kernel_ir.Data.t) ->
      let consumers =
        String.concat " " (List.map kernel_name d.Kernel_ir.Data.consumers)
      in
      match d.Kernel_ir.Data.producer with
      | Kernel_ir.Data.External ->
        Buffer.add_string buf
          (Printf.sprintf "input %s size %d%s -> %s\n" d.Kernel_ir.Data.name
             d.Kernel_ir.Data.size
             (if d.Kernel_ir.Data.invariant then " invariant" else "")
             consumers)
      | Kernel_ir.Data.Produced_by p ->
        if d.Kernel_ir.Data.consumers = [] then
          Buffer.add_string buf
            (Printf.sprintf "final %s size %d from %s\n" d.Kernel_ir.Data.name
               d.Kernel_ir.Data.size (kernel_name p))
        else
          Buffer.add_string buf
            (Printf.sprintf "result %s size %d from %s -> %s%s\n"
               d.Kernel_ir.Data.name d.Kernel_ir.Data.size (kernel_name p)
               consumers
               (if d.Kernel_ir.Data.final then " final" else "")))
    app.Kernel_ir.Application.data;
  (match spec.partition with
  | Some sizes ->
    Buffer.add_string buf
      (Printf.sprintf "\npartition %s\n"
         (String.concat " " (List.map string_of_int sizes)))
  | None -> ());
  (match spec.fb_set_size with
  | Some n -> Buffer.add_string buf (Printf.sprintf "fb %d\n" n)
  | None -> ());
  (match spec.cm_capacity with
  | Some n -> Buffer.add_string buf (Printf.sprintf "cm %d\n" n)
  | None -> ());
  Buffer.contents buf

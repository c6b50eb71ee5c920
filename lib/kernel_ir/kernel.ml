type id = int

type t = { id : id; name : string; contexts : int; exec_cycles : int }

let check t =
  let e fmt = Diag.v ~kernel:t.name Diag.Invalid_app fmt in
  let positive what n =
    if n <= 0 then [ e "kernel %S has non-positive %s (%d)" t.name what n ]
    else if n > Morphosys.Config.max_quantity then
      [
        e "kernel %S has %s %d above the bound %d" t.name what n
          Morphosys.Config.max_quantity;
      ]
    else []
  in
  List.concat
    [
      (if t.id < 0 then [ e "kernel %S has negative id %d" t.name t.id ]
       else []);
      (if t.name = "" then
         [ Diag.v Diag.Invalid_app "kernel %d has an empty name" t.id ]
       else []);
      positive "context words" t.contexts;
      positive "exec cycles" t.exec_cycles;
    ]

let make ~id ~name ~contexts ~exec_cycles =
  let t = { id; name; contexts; exec_cycles } in
  match check t with
  | [] -> t
  | d :: _ -> invalid_arg ("Kernel.make: " ^ Diag.to_string d)

let pp fmt t =
  Format.fprintf fmt "%s#%d(ctx=%d,cyc=%d)" t.name t.id t.contexts
    t.exec_cycles

let equal (a : t) (b : t) = a = b

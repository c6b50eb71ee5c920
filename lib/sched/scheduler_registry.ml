(* The registry is populated by module-initialisation side effects (each
   scheduler registers itself when its compilation unit is linked; the
   sched and cds libraries are built with -linkall so registration cannot
   be dropped by the linker). Registration is serialised by a mutex;
   lookups after initialisation are read-only and safe to share across
   the engine's worker domains. *)

let lock = Mutex.create ()
let table : (string, Scheduler_intf.t) Hashtbl.t = Hashtbl.create 8

let register ~describe (policy : _ Step_builder.policy) =
  let name = policy.name in
  let m =
    {
      Scheduler_intf.name;
      describe;
      run =
        (fun ctx config ->
          Result.map fst (Step_builder.search policy ctx config));
      rebuild =
        (fun ctx config ~rf ->
          Result.map fst (Step_builder.at_rf policy ctx config ~rf));
    }
  in
  Mutex.protect lock (fun () ->
      if Hashtbl.mem table name then
        invalid_arg
          (Printf.sprintf "Scheduler_registry.register: duplicate scheduler %S"
             name)
      else Hashtbl.add table name m)

let find name = Hashtbl.find_opt table name

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) table []
  |> List.sort compare

let all () =
  (* sorted by name: deterministic regardless of link / registration order *)
  List.filter_map (fun n -> Hashtbl.find_opt table n) (names ())

let unknown name =
  Diag.v Diag.Invalid_config "unknown scheduler %S (have: %s)" name
    (String.concat ", " (names ()))

let dispatch name f =
  match find name with Some m -> f m | None -> Error (unknown name)

let run name ctx config =
  dispatch name (fun m -> m.Scheduler_intf.run ctx config)

let rebuild name ctx config ~rf =
  dispatch name (fun m -> m.Scheduler_intf.rebuild ctx config ~rf)

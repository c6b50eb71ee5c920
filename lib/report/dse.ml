type point = {
  fb_set_size : int;
  cm_capacity : int;
  dma_setup_cycles : int;
  scheduler : string;
  feasible : bool;
  rf : int option;
  total_cycles : int option;
  data_words : int option;
  context_words : int option;
  diag : Diag.t option;
}

let infeasible ~fb ~cm ~setup ~scheduler diag =
  {
    fb_set_size = fb;
    cm_capacity = cm;
    dma_setup_cycles = setup;
    scheduler;
    feasible = false;
    rf = None;
    total_cycles = None;
    data_words = None;
    context_words = None;
    diag = Some diag;
  }

let priced ~fb ~cm ~setup ~scheduler ~rf (c : Sched.Step_builder.cost) =
  {
    fb_set_size = fb;
    cm_capacity = cm;
    dma_setup_cycles = setup;
    scheduler;
    feasible = true;
    rf = Some rf;
    total_cycles = Some c.cycles;
    data_words = Some c.data_words;
    context_words = Some c.context_words;
    diag = None;
  }

let machine ~fb ~cm ~setup =
  Morphosys.Config.make ~fb_set_size:fb ~cm_capacity:cm ~dma_setup_cycles:setup
    ()

(* Every axis must hold a value, and each value is judged by
   [Config.validate] on the M1 machine with just that field replaced, so a
   bad value is one diagnostic rather than a failure in every design point
   that uses it. *)
let check_axes ~fb_list ~cm_list ~setup_list =
  let m1 = Morphosys.Config.m1 ~fb_set_size:1024 in
  match
    List.find_map
      (fun (field, empty) -> if empty then Some field else None)
      [
        ("fb_set_size", fb_list = []);
        ("cm_capacity", cm_list = []);
        ("dma_setup_cycles", setup_list = []);
      ]
  with
  | Some field -> Error (Diag.v Diag.Invalid_config "%s axis is empty" field)
  | None ->
    List.fold_left
      (fun acc config ->
        Result.bind acc (fun () ->
            Result.map_error
              (fun msg -> Diag.v Diag.Invalid_config "%s" msg)
              (Morphosys.Config.validate config)))
      (Ok ())
      (List.map (fun fb -> { m1 with fb_set_size = fb }) fb_list
      @ List.map (fun cm -> { m1 with cm_capacity = cm }) cm_list
      @ List.map (fun setup -> { m1 with dma_setup_cycles = setup }) setup_list)

(* The sweep axis: the paper's three tiers. *)
let schedulers = [ "basic"; "ds"; "cds" ]

(* A design point is priced, not built: the RF search's own estimate of
   the winning schedule is exactly what simulating it would measure.
   [bound] is [scheduler] bound to the sweep's context. *)
let evaluate (bound : Sched.Scheduler_intf.bound) ~fb ~cm ~setup ~scheduler =
  match bound.price (machine ~fb ~cm ~setup) with
  | Error d -> infeasible ~fb ~cm ~setup ~scheduler d
  | Ok (rf, cost) -> priced ~fb ~cm ~setup ~scheduler ~rf cost

let point_key ~app_digest (fb, cm, setup, scheduler) =
  Engine.Key.combine
    [ app_digest; string_of_int fb; string_of_int cm; string_of_int setup;
      scheduler ]

(* -- durable persistence ------------------------------------------------- *)

module Durable = struct
  (* A point record's payload is the point alone, as one line of
     tab-separated text: a point is a deterministic function of (ctx,
     config, scheduler), so replay runs the scheduler again and checks the
     record against it. Bump this whenever the encoding (or [point])
     changes shape. *)
  let schema_version = 4

  (* Strings are [String.escaped], so a field holds no tab or newline; an
     optional string is quoted, so [Some ""] is not [None]. *)
  let int_opt = function None -> "" | Some i -> string_of_int i
  let str_opt = function None -> "" | Some s -> "\"" ^ String.escaped s ^ "\""

  let diag_fields (d : Diag.t) =
    [ Diag.code_name d.code;
      (match d.severity with Diag.Error -> "E" | Diag.Warning -> "W");
      str_opt d.scheduler; int_opt d.cluster; str_opt d.kernel;
      str_opt d.data; String.escaped d.message; str_opt d.backtrace ]

  let encode p =
    String.concat "\t"
      ([ string_of_int p.fb_set_size; string_of_int p.cm_capacity;
         string_of_int p.dma_setup_cycles; String.escaped p.scheduler;
         (if p.feasible then "1" else "0"); int_opt p.rf;
         int_opt p.total_cycles; int_opt p.data_words;
         int_opt p.context_words ]
      @ match p.diag with None -> [] | Some d -> diag_fields d)

  (* Record 0 of every sweep store: its payload is the sweep identity.
     Every later record is one design point. *)
  let identity_key = "@sweep-identity"

  type t = {
    path : string;
    identity : string;
    store : Engine.Store.t;
    mutable run_warnings : Diag.t list;  (* re-validation/persist diags, rev *)
    mutable noted : int;  (* STORE_CORRUPT warnings given to a Stats *)
  }

  let identity t = t.identity
  let completed t = Engine.Store.length t.store - 1
  let warnings t = Engine.Store.warnings t.store @ List.rev t.run_warnings

  (* The sweep identity: everything the on-disk state is a function of.
     Axis values and scheduler names are tagged so reshuffling words
     between axes cannot collide. *)
  let identity_of ~app_digest ~cm_list ~setup_list ~fb_list =
    Engine.Key.combine
      ((app_digest :: Printf.sprintf "schema:%d" schema_version
        :: Printf.sprintf "format:%d" Engine.Store.format_version
        :: List.map (Printf.sprintf "fb:%d") fb_list)
      @ List.map (Printf.sprintf "cm:%d") cm_list
      @ List.map (Printf.sprintf "setup:%d") setup_list
      @ List.map (Printf.sprintf "sched:%s") schedulers)

  let short key = if String.length key <= 12 then key else String.sub key 0 12

  (* Whether the stored point of design point [(fb, cm, setup, scheduler)]
     may stand in for computing it, on a pool domain. The record passed its
     MD5 on open, so it is complete. It is trusted only if its payload is
     the encoding of what this sweep would compute, feasible or not: the
     scheduler, bound to the sweep's own context, is run again (the RF
     search, then one build), and either its diagnostic or its schedule —
     validated, then simulated — gives the expected point. Otherwise the
     caller recomputes the point and reports the warning. *)
  let revalidate t ~key (bound : Sched.Scheduler_intf.bound)
      (fb, cm, setup, scheduler) payload =
    let ( let* ) = Result.bind in
    let verdict =
      let config = machine ~fb ~cm ~setup in
      let* expected =
        match bound.run config with
        | Error d -> Ok (infeasible ~fb ~cm ~setup ~scheduler d)
        | Ok s -> (
          match Msim.Validate.check_result s with
          | Error d ->
            Error ("failed semantic validation (" ^ Diag.to_string d ^ ")")
          | Ok () ->
            Ok
              (priced ~fb ~cm ~setup ~scheduler ~rf:s.Sched.Schedule.rf
                 (Msim.Executor.cost config s)))
      in
      if String.equal (encode expected) payload then Ok expected
      else Error "does not simulate to its stored point"
    in
    Result.map_error
      (fun reason ->
        Diag.v ~severity:Diag.Warning Diag.Store_corrupt
          "store %s: record %s… %s; quarantined — the point will be \
           recomputed"
          t.path (short key) reason)
      verdict

  let open_ ?(resume = false) ~path ?(cm_list = [ 2048 ])
      ?(setup_list = [ 0 ]) ~fb_list app clustering =
    match
      Result.bind (check_axes ~fb_list ~cm_list ~setup_list) (fun () ->
          Engine.Key.digest_value_result (app, clustering))
    with
    | Error d -> Error d
    | Ok app_digest ->
      let identity = identity_of ~app_digest ~cm_list ~setup_list ~fb_list in
      if
        (not resume) && Sys.file_exists path
        && (Unix.stat path).Unix.st_size > 0
      then
        Error
          (Diag.v Diag.Sweep_mismatch
             "store %s already exists; pass --resume to continue that sweep, \
              or point --store at a fresh path"
             path)
      else
        match Engine.Store.open_ ~schema:schema_version path with
        | Error d -> Error d
        | Ok store -> (
          match Engine.Store.find store identity_key with
          | Some id when not (String.equal id identity) ->
            Engine.Store.close store;
            Error
              (Diag.v Diag.Sweep_mismatch
                 "store %s belongs to a different sweep (identity %s…, this \
                  sweep is %s…): refusing to resume — the application, \
                  axes, scheduler set or code version changed; use a fresh \
                  --store path"
                 path (short id) (short identity))
          | found ->
            (* a fresh store, or one whose identity record was torn (and
               with it every later record): claim it for this sweep *)
            if found = None then
              Engine.Store.append store ~key:identity_key ~payload:identity;
            Ok { path; identity; store; run_warnings = []; noted = 0 })

  let inspect path =
    Result.map
      (fun records ->
        let points =
          List.filter (fun (k, _) -> not (String.equal k identity_key)) records
        in
        (List.assoc_opt identity_key records, List.length points))
      (Engine.Store.contents path)

  (* Called from inside pool tasks (any worker domain): a persistence
     failure degrades durability, never the sweep — the point is still
     returned in memory, and the warning to report is returned. *)
  let persist t ~key (p : point) =
    match Engine.Store.append t.store ~key ~payload:(encode p) with
    | () -> []
    | exception e ->
      [ Diag.v ~severity:Diag.Warning Diag.Store_corrupt
          "failed to persist point %s… (%s); continuing without it"
          (short key) (Printexc.to_string e) ]

  (* After the pool joins, in task order: the same list at any [~jobs]. *)
  let add_warnings t ws = t.run_warnings <- List.rev_append ws t.run_warnings

  let note_stats t st ~replayed ~recomputed =
    let corrupt =
      List.length
        (List.filter (fun d -> d.Diag.code = Diag.Store_corrupt) (warnings t))
    in
    Engine.Stats.note_store st ~replayed ~recomputed
      ~quarantined:(corrupt - t.noted);
    t.noted <- corrupt

  let checkpoint t = Engine.Store.checkpoint t.store
  let close t = Engine.Store.close t.store
end

let sweep ?(jobs = 1) ?stats ?store ?(cm_list = [ 2048 ])
    ?(setup_list = [ 0 ]) ~fb_list app clustering =
  (match check_axes ~fb_list ~cm_list ~setup_list with
  | Ok () -> ()
  | Error d -> invalid_arg ("Report.Dse.sweep: " ^ Diag.to_string d));
  let combos =
    List.concat_map
      (fun fb ->
        List.concat_map
          (fun cm ->
            List.concat_map
              (fun setup ->
                List.map (fun scheduler -> (fb, cm, setup, scheduler))
                  schedulers)
              setup_list)
          cm_list)
      fb_list
  in
  (* An axis may repeat a value: each distinct design point runs once. *)
  let distinct =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun c ->
        if Hashtbl.mem seen c then false
        else begin
          Hashtbl.add seen c ();
          true
        end)
      combos
  in
  (* With a store, the calling domain fetches the stored payload of every
     distinct point. One key = one design point: the digest covers the
     application, the clustering and every machine parameter, so a hit is
     exact. Without a store nothing is digested. *)
  let pending =
    match store with
    | None -> List.map (fun c -> (c, None)) distinct
    | Some d ->
      let app_digest =
        match Engine.Key.digest_value_result (app, clustering) with
        | Ok app_digest
          when String.equal (Durable.identity d)
                 (Durable.identity_of ~app_digest ~cm_list ~setup_list
                    ~fb_list) ->
          app_digest
        | Ok _ | Error _ ->
          (* the CLI can never get here (Durable.open_ already refused a
             mismatch), so this is a programmer error *)
          invalid_arg
            "Report.Dse.sweep: ~store was opened for a different sweep \
             (application, clustering or axes mismatch)"
      in
      List.map
        (fun c ->
          let key = point_key ~app_digest c in
          (c, Some (d, key, Engine.Store.find d.Durable.store key)))
        distinct
  in
  (* One pool task per distinct point. The calling domain binds each
     scheduler to the one analysis context once, and every task reads
     those immutable values. A stored payload that re-validates is a hit;
     every other point is scheduled and, with a store, made durable the
     moment its task completes, on whatever domain ran it. Tasks return
     their warnings rather than record them, so the store sees them in
     task order. *)
  let ctx = Sched.Sched_ctx.make app clustering in
  let bound =
    List.map (fun s -> (s, Sched.Scheduler_registry.bind s ctx)) schedulers
  in
  let task (((fb, cm, setup, scheduler) as combo), on_disk) () =
    let bound = List.assoc scheduler bound in
    let compute warnings =
      let work () = evaluate bound ~fb ~cm ~setup ~scheduler in
      let p =
        match stats with
        | None -> work ()
        | Some st -> Engine.Stats.time st ~label:scheduler work
      in
      match on_disk with
      | Some (d, key, _) -> (p, false, warnings @ Durable.persist d ~key p)
      | None -> (p, false, warnings)
    in
    match on_disk with
    | Some (d, key, Some payload) -> (
      match Durable.revalidate d ~key bound combo payload with
      | Ok p -> (p, true, [])
      | Error w -> compute [ w ])
    | _ -> compute []
  in
  let slots =
    Engine.Pool.run_results ~jobs (Array.of_list (List.map task pending))
  in
  (* A crashed task is isolated into an infeasible point carrying its
     diagnostic; the rest of the sweep is unaffected. *)
  let settled =
    List.mapi
      (fun i (((fb, cm, setup, scheduler) as combo), _) ->
        match slots.(i) with
        | Ok (p, replayed, ws) -> (combo, p, replayed, ws)
        | Error d -> (combo, infeasible ~fb ~cm ~setup ~scheduler d, false, []))
      pending
  in
  let points = Hashtbl.create 64 in
  List.iter (fun (c, p, _, _) -> Hashtbl.replace points c p) settled;
  (match store with
  | Some d ->
    Durable.add_warnings d (List.concat_map (fun (_, _, _, ws) -> ws) settled);
    Option.iter
      (fun st ->
        let replayed =
          List.length (List.filter (fun (_, _, r, _) -> r) settled)
        in
        Durable.note_stats d st ~replayed
          ~recomputed:(List.length distinct - replayed))
      stats
  | None -> ());
  List.map (Hashtbl.find points) combos

let opt_str f = function Some v -> f v | None -> ""

let to_csv points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "fb_words,cm_words,dma_setup,scheduler,feasible,rf,cycles,data_words,context_words\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%s,%b,%s,%s,%s,%s\n" p.fb_set_size
           p.cm_capacity p.dma_setup_cycles p.scheduler p.feasible
           (opt_str string_of_int p.rf)
           (opt_str string_of_int p.total_cycles)
           (opt_str string_of_int p.data_words)
           (opt_str string_of_int p.context_words)))
    points;
  Buffer.contents buf

(* The sweep-level failure mode `msched dse` must not swallow: a run in
   which nothing was feasible has produced no sizing information at all. *)
let all_infeasible_diag points =
  match points with
  | p :: _ when not (List.exists (fun p -> p.feasible) points) ->
    Some
      (Diag.v Diag.Invalid_config
         "dse: all %d design points are infeasible — no machine sizing \
          satisfies this application (first diagnostic: %s)"
         (List.length points)
         (match p.diag with
         | Some d -> Diag.to_string d
         | None -> "none recorded"))
  | _ -> None

let best points =
  List.fold_left
    (fun acc p ->
      match (p.feasible, p.total_cycles, acc) with
      | false, _, _ | _, None, _ -> acc
      | true, Some _, None -> Some p
      | true, Some c, Some b ->
        let bc = Option.get b.total_cycles in
        if c < bc || (c = bc && p.fb_set_size < b.fb_set_size) then Some p
        else acc)
    None points

let pareto points =
  let feasible =
    List.filter (fun p -> p.feasible && p.total_cycles <> None) points
  in
  let dominated p =
    List.exists
      (fun q ->
        q != p && q.feasible
        && q.fb_set_size <= p.fb_set_size
        && Option.get q.total_cycles <= Option.get p.total_cycles
        && (q.fb_set_size < p.fb_set_size
           || Option.get q.total_cycles < Option.get p.total_cycles))
      feasible
  in
  List.filter (fun p -> not (dominated p)) feasible
  |> List.sort (fun a b -> compare a.fb_set_size b.fb_set_size)

let print_table points =
  let header =
    [ "FB"; "CM"; "setup"; "sched"; "RF"; "cycles"; "data w"; "ctx w" ]
  in
  let rows =
    List.map
      (fun p ->
        [
          Msutil.Pretty.kbytes p.fb_set_size;
          Msutil.Pretty.kbytes p.cm_capacity;
          string_of_int p.dma_setup_cycles;
          p.scheduler;
          (if p.feasible then opt_str string_of_int p.rf else "-");
          (if p.feasible then opt_str string_of_int p.total_cycles
           else "infeasible");
          opt_str string_of_int p.data_words;
          opt_str string_of_int p.context_words;
        ])
      points
  in
  Msutil.Pretty.table ~header ~rows Format.std_formatter

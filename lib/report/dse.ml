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

let point_of_schedule config ~fb ~cm ~setup ~scheduler = function
  | Error d -> infeasible ~fb ~cm ~setup ~scheduler d
  | Ok (s : Sched.Schedule.t) ->
    let m = Msim.Executor.run config s in
    {
      fb_set_size = fb;
      cm_capacity = cm;
      dma_setup_cycles = setup;
      scheduler;
      feasible = true;
      rf = Some s.Sched.Schedule.rf;
      total_cycles = Some m.Msim.Metrics.total_cycles;
      data_words = Some (Msim.Metrics.data_words m);
      context_words = Some m.Msim.Metrics.context_words_loaded;
      diag = None;
    }

(* The default sweep axis: the paper's three tiers. Other registered
   schedulers (e.g. "cds-xset") can be swept by passing an explicit
   [~scheduler] to {!evaluate}. *)
let schedulers = [ "basic"; "ds"; "cds" ]

(* The point plus the schedule that produced it: what the durable store
   persists, so a rehydrated feasible point can be re-validated against
   the semantic checker before it is trusted. *)
let evaluate_full ?ctx ~fb ~cm ~setup ~scheduler app clustering =
  let config =
    Morphosys.Config.make ~fb_set_size:fb ~cm_capacity:cm
      ~dma_setup_cycles:setup ()
  in
  let ctx =
    match ctx with
    | Some c -> c
    | None -> Sched.Sched_ctx.make app clustering
  in
  let r = Sched.Scheduler_registry.run scheduler ctx config in
  (point_of_schedule config ~fb ~cm ~setup ~scheduler r, Result.to_option r)

let evaluate ?ctx ~fb ~cm ~setup ~scheduler app clustering =
  fst (evaluate_full ?ctx ~fb ~cm ~setup ~scheduler app clustering)

let point_key ~app_digest (fb, cm, setup, scheduler) =
  Engine.Key.combine
    [ app_digest; string_of_int fb; string_of_int cm; string_of_int setup;
      scheduler ]

(* A crashed design-point task is isolated into an infeasible point
   carrying its diagnostic; the rest of the sweep is unaffected. *)
let settle ~combo = function
  | Ok p -> p
  | Error d ->
    let fb, cm, setup, scheduler = combo in
    infeasible ~fb ~cm ~setup ~scheduler d

(* -- durable persistence ------------------------------------------------- *)

(* What one store record deserialises to. Bump [Durable.schema_version]
   whenever this type (or anything reachable from it) changes shape. *)
type stored = {
  stored_point : point;
  stored_schedule : Sched.Schedule.t option;  (* [Some] iff feasible *)
}

module Durable = struct
  let schema_version = 2

  (* Record 0 of every sweep store: its payload is the sweep identity.
     Every later record is one design point. *)
  let identity_key = "@sweep-identity"

  type t = {
    path : string;
    identity : string;
    store : Engine.Store.t;
    mutex : Mutex.t;
    trusted : (string, point) Hashtbl.t;
        (* integrity-checked + re-validated points, grown as the live
           sweep persists new ones: the sweep's only memo *)
    mutable run_warnings : Diag.t list;  (* rehydration/persist diags, rev *)
    mutable quarantined : int;
    mutable stats_noted : bool;
  }

  let with_lock t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let path t = t.path
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

  let quarantine t d =
    t.run_warnings <- d :: t.run_warnings;
    t.quarantined <- t.quarantined + 1

  let short key = if String.length key <= 12 then key else String.sub key 0 12

  (* Replay the store. Each record was appended in one write and passed
     its MD5 on open, so a record that is there is complete; it is trusted
     once it deserialises and its feasible schedule still satisfies the
     semantic validator. Everything else is quarantined (superseded on
     disk once the point is recomputed and re-persisted). *)
  let rehydrate t =
    Engine.Store.iter
      (fun ~key ~payload ->
        if not (String.equal key identity_key) then
          match (Marshal.from_string payload 0 : stored) with
          | exception _ ->
            quarantine t
              (Diag.v ~severity:Diag.Warning Diag.Store_corrupt
                 "store %s: record %s… does not deserialise (schema drift?); \
                  quarantined — the point will be recomputed"
                 t.path (short key))
          | { stored_point = p; stored_schedule } -> (
            if not p.feasible then Hashtbl.replace t.trusted key p
            else
              match stored_schedule with
              | None ->
                quarantine t
                  (Diag.v ~severity:Diag.Warning Diag.Store_corrupt
                     "store %s: feasible point %s… has no schedule to \
                      re-validate; quarantined — the point will be recomputed"
                     t.path (short key))
              | Some s -> (
                match Msim.Validate.check_result s with
                | Ok () -> Hashtbl.replace t.trusted key p
                | Error d ->
                  quarantine t
                    (Diag.v ~severity:Diag.Warning Diag.Store_corrupt
                       "store %s: rehydrated schedule %s… failed semantic \
                        validation (%s); quarantined — the point will be \
                        recomputed"
                       t.path (short key) (Diag.to_string d)))))
      t.store

  let open_ ?(resume = false) ~path ?(cm_list = [ 2048 ])
      ?(setup_list = [ 0 ]) ~fb_list app clustering =
    match Engine.Key.digest_value_result (app, clustering) with
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
            let t =
              {
                path;
                identity;
                store;
                mutex = Mutex.create ();
                trusted = Hashtbl.create 256;
                run_warnings = [];
                quarantined = 0;
                stats_noted = false;
              }
            in
            rehydrate t;
            Ok t)

  let inspect path =
    Result.map
      (fun records ->
        let points =
          List.filter (fun (k, _) -> not (String.equal k identity_key)) records
        in
        (List.assoc_opt identity_key records, List.length points))
      (Engine.Store.contents path)

  let find t key = with_lock t (fun () -> Hashtbl.find_opt t.trusted key)

  (* Called from inside pool tasks (any worker domain): a persistence
     failure degrades durability, never the sweep — the point is still
     returned in memory, with a warning recorded. An injected scheduler
     fault is transient, so its placeholder point is never persisted. *)
  let persist t ~key stored_v =
    match stored_v.stored_point.diag with
    | Some { Diag.code = Diag.Fault_injected; _ } -> ()
    | _ -> (
    match Marshal.to_string stored_v [] with
    | exception Invalid_argument msg ->
      with_lock t (fun () ->
          quarantine t
            (Diag.v ~severity:Diag.Warning Diag.Store_corrupt
               "point %s… is not serialisable (%s); continuing without \
                persisting it"
               (short key) msg))
    | payload -> (
      match Engine.Store.append t.store ~key ~payload with
      | () ->
        with_lock t (fun () ->
            Hashtbl.replace t.trusted key stored_v.stored_point)
      | exception e ->
        with_lock t (fun () ->
            quarantine t
              (Diag.v ~severity:Diag.Warning Diag.Store_corrupt
                 "failed to persist point %s… (%s); continuing without it"
                 (short key) (Printexc.to_string e)))))

  let note_stats t st ~replayed =
    let quarantined =
      if t.stats_noted then 0
      else begin
        t.stats_noted <- true;
        List.length
          (List.filter
             (fun d -> d.Diag.code = Diag.Store_corrupt)
             (warnings t))
      end
    in
    Engine.Stats.note_store st ~replayed ~quarantined

  let checkpoint t = Engine.Store.checkpoint t.store
  let close t = Engine.Store.close t.store
end

let sweep ?(jobs = 1) ?retries ?stats ?store ?(cm_list = [ 2048 ])
    ?(setup_list = [ 0 ]) ~fb_list app clustering =
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
  (* With a store, every distinct point is looked up among the trusted
     ones first. One key = one design point: the digest covers the
     application, the clustering and every machine parameter, so a hit
     is exact. Without a store nothing is digested. *)
  let lookups =
    match store with
    | None -> List.map (fun c -> (c, None, None)) distinct
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
          (c, Some key, Durable.find d key))
        distinct
  in
  let misses = List.filter (fun (_, _, hit) -> hit = None) lookups in
  (* One immutable analysis context shared by every design point — and,
     under [~jobs > 1], by every worker domain. A store makes each point
     durable the moment its task completes, on whatever domain ran it. *)
  let ctx = Sched.Sched_ctx.make app clustering in
  let task ((fb, cm, setup, scheduler), key, _) () =
    let work () =
      evaluate_full ~ctx ~fb ~cm ~setup ~scheduler app clustering
    in
    let p, schedule =
      match stats with
      | None -> work ()
      | Some st -> Engine.Stats.time st ~label:scheduler work
    in
    (match (store, key) with
    | Some d, Some key ->
      Durable.persist d ~key { stored_point = p; stored_schedule = schedule }
    | _ -> ());
    p
  in
  let slots =
    Engine.Pool.run_results ~jobs ?retries
      (Array.of_list (List.map task misses))
  in
  let points = Hashtbl.create 64 in
  List.iter (fun (c, _, hit) -> Option.iter (Hashtbl.replace points c) hit)
    lookups;
  List.iteri
    (fun i (combo, _, _) ->
      Hashtbl.replace points combo (settle ~combo slots.(i)))
    misses;
  (match (store, stats) with
  | Some d, Some st ->
    let hits = List.length lookups - List.length misses in
    Engine.Stats.note_cache st ~hits ~misses:(List.length misses);
    Durable.note_stats d st ~replayed:hits
  | _ -> ());
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
  | [] ->
    Some
      (Diag.v Diag.Invalid_config
         "dse: empty sweep — no design points were evaluated (check the \
          axis lists)")
  | _ when List.exists (fun p -> p.feasible) points -> None
  | p :: _ ->
    Some
      (Diag.v Diag.Invalid_config
         "dse: all %d design points are infeasible — no machine sizing \
          satisfies this application (first diagnostic: %s)"
         (List.length points)
         (match p.diag with
         | Some d -> Diag.to_string d
         | None -> "none recorded"))

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

(* Durable, crash-recoverable DSE: a resumed sweep must reproduce an
   uninterrupted run byte for byte while recomputing nothing already on
   disk — and every flavour of on-disk damage must degrade to
   quarantine-and-recompute, never to a wrong result. *)

module Dse = Report.Dse
module Durable = Report.Dse.Durable

let contains = Astring_contains.contains
let fb_list = [ 1024; 2048 ]
let n_points = 3 * List.length fb_list

let mpeg () =
  let app = Workloads.Mpeg.app () in
  (app, Workloads.Mpeg.clustering app)

let tmp_path () =
  let path = Filename.temp_file "msched_dse" ".store" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".quarantine" ]

let with_path f =
  let path = tmp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () -> f path

let file_size path = (Unix.stat path).Unix.st_size

let open_exn ?resume ~path (app, clustering) =
  match Durable.open_ ?resume ~path ~fb_list app clustering with
  | Ok d -> d
  | Error d -> Alcotest.failf "Durable.open_ failed: %s" (Diag.render d)

let test_durable_roundtrip () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.sweep ~fb_list app clustering in
  (* cold run: persisting must not perturb the output *)
  let d = open_exn ~path w in
  let cold = Dse.sweep ~store:d ~fb_list app clustering in
  Alcotest.(check string) "durable run byte-identical" (Dse.to_csv reference)
    (Dse.to_csv cold);
  Alcotest.(check int) "every point on disk" n_points
    (Durable.completed d);
  Alcotest.(check int) "clean run has no warnings" 0
    (List.length (Durable.warnings d));
  Durable.close d;
  (* resume into a fresh process-worth of state: everything replays, the
     schedulers never run *)
  let d = open_exn ~resume:true ~path w in
  let st = Engine.Stats.create () in
  let resumed = Dse.sweep ~store:d ~stats:st ~fb_list app clustering in
  Alcotest.(check string) "resumed run byte-identical" (Dse.to_csv reference)
    (Dse.to_csv resumed);
  Alcotest.(check int) "all points served from the store" n_points
    (Engine.Stats.cache_hits st);
  Alcotest.(check int) "zero recomputation" 0 (Engine.Stats.tasks_run st);
  Alcotest.(check int) "stats count the replay" n_points
    (Engine.Stats.store_replayed st);
  Alcotest.(check int) "nothing quarantined" 0
    (Engine.Stats.store_quarantined st);
  Durable.close d

let test_crash_resume () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.sweep ~fb_list app clustering in
  (* simulate a crash: injected faults at the pool entry kill a subset of
     the tasks before they can compute — exactly like a process dying
     between points, those tasks persist nothing *)
  let d1 = open_exn ~path w in
  Engine.Faults.arm
    (Engine.Faults.plan ~rate:0.5 ~seed:11 ());
  let partial =
    Fun.protect ~finally:Engine.Faults.disarm (fun () ->
        Dse.sweep ~store:d1 ~fb_list app clustering)
  in
  Alcotest.(check int) "partial run still settles every point" n_points
    (List.length partial);
  let completed = Durable.completed d1 in
  Durable.close d1;
  Alcotest.(check bool) "the crash left work undone" true
    (completed < n_points);
  (* resume: only the points not on disk run; output as if uninterrupted *)
  let d2 = open_exn ~resume:true ~path w in
  let st = Engine.Stats.create () in
  let resumed = Dse.sweep ~store:d2 ~stats:st ~fb_list app clustering in
  Alcotest.(check string) "resumed run byte-identical to uninterrupted"
    (Dse.to_csv reference) (Dse.to_csv resumed);
  Alcotest.(check int) "persisted points are never recomputed" completed
    (Engine.Stats.cache_hits st);
  Alcotest.(check int) "only the lost points run"
    (n_points - completed)
    (Engine.Stats.tasks_run st);
  Alcotest.(check int) "now everything is on disk" n_points
    (Durable.completed d2);
  Durable.close d2

let test_injected_faults_not_persisted () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.sweep ~fb_list app clustering in
  (* every pool task is felled: each point comes back infeasible with a
     FAULT_INJECTED diagnostic, a transient failure that must not be
     mistaken for a permanent infeasible point on disk *)
  let d1 = open_exn ~path w in
  let faulted =
    Engine.Faults.with_plan
      (Engine.Faults.plan ~rate:1.0 ~seed:7 ())
      (fun () -> Dse.sweep ~store:d1 ~fb_list app clustering)
  in
  Alcotest.(check bool) "the faulted run is all infeasible" true
    (List.for_all (fun (p : Dse.point) -> not p.Dse.feasible) faulted);
  Alcotest.(check int) "no faulted point was persisted" 0
    (Durable.completed d1);
  Durable.close d1;
  let d2 = open_exn ~resume:true ~path w in
  let resumed = Dse.sweep ~store:d2 ~fb_list app clustering in
  Alcotest.(check string) "fault-free resume byte-identical"
    (Dse.to_csv reference) (Dse.to_csv resumed);
  Durable.close d2

let test_torn_tail_recomputes_one () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.sweep ~fb_list app clustering in
  let d = open_exn ~path w in
  ignore (Dse.sweep ~store:d ~fb_list app clustering);
  Durable.close d;
  (* SIGKILL mid-append: the store loses its last record's trailer. The
     record's own MD5 is the guard: it no longer verifies, so the point is
     quarantined and recomputed *)
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 13);
  let d = open_exn ~resume:true ~path w in
  Alcotest.(check bool) "the quarantine is reported" true
    (List.exists
       (fun (w : Diag.t) -> w.Diag.code = Diag.Store_corrupt)
       (Durable.warnings d));
  let st = Engine.Stats.create () in
  let resumed = Dse.sweep ~jobs:1 ~store:d ~stats:st ~fb_list app clustering in
  Alcotest.(check string) "recovered run byte-identical"
    (Dse.to_csv reference) (Dse.to_csv resumed);
  Alcotest.(check int) "exactly the torn point is recomputed" 1
    (Engine.Stats.tasks_run st);
  Alcotest.(check int) "the other points replay" (n_points - 1)
    (Engine.Stats.cache_hits st);
  Durable.close d;
  (* the recomputed record superseded the torn one: next resume is clean *)
  let d = open_exn ~resume:true ~path w in
  let st = Engine.Stats.create () in
  ignore (Dse.sweep ~store:d ~stats:st ~fb_list app clustering);
  Alcotest.(check int) "repaired store replays fully" 0
    (Engine.Stats.tasks_run st);
  Durable.close d

(* A complete store of the sweep with one record rewritten *in content*:
   [f] sees the feasible records as (key, point) and returns the key to
   overwrite and the payload to store there. Checksums pass, so only
   re-validation can catch it. A stored payload is read back as the point
   of the in-memory sweep whose encoding it is. *)
let forge_one_record ~path ((app, clustering) as w) f =
  let d = open_exn ~path w in
  let swept = Dse.sweep ~store:d ~fb_list app clustering in
  Durable.close d;
  let point_of payload =
    List.find_opt (fun p -> String.equal (Durable.encode p) payload) swept
  in
  let key, payload =
    match Engine.Store.contents path with
    | Error diag -> Alcotest.failf "contents: %s" (Diag.render diag)
    | Ok [] -> Alcotest.fail "empty store"
    | Ok (_identity :: points) ->
      (* record 0 is the sweep identity, a hex digest: not a point *)
      f
        (List.filter_map
           (fun (key, payload) ->
             match point_of payload with
             | Some p -> if p.Dse.feasible then Some (key, p) else None
             | None -> Alcotest.failf "record %s is no swept point" key)
           points)
  in
  match Engine.Store.open_ ~schema:Durable.schema_version path with
  | Error diag -> Alcotest.failf "reopen: %s" (Diag.render diag)
  | Ok store ->
    Engine.Store.append store ~key ~payload;
    Engine.Store.close store

(* What one resume reports, compared across [~jobs]. *)
type outcome = {
  csv : string;
  warnings : string list;
  tasks_run : int;
  cache_hits : int;
  store_quarantined : int;
}

(* Resume a store holding [bytes], from a fresh copy each time, at
   [~jobs:1] and [~jobs:4]: both report exactly the same. *)
let resume_at_jobs_1_and_4 ~path bytes ((app, clustering) as w) =
  let resume jobs =
    Store_frames.write_file path bytes;
    if Sys.file_exists (path ^ ".quarantine") then
      Sys.remove (path ^ ".quarantine");
    let d = open_exn ~resume:true ~path w in
    let st = Engine.Stats.create () in
    let points = Dse.sweep ~jobs ~store:d ~stats:st ~fb_list app clustering in
    let warnings = List.map Diag.render (Durable.warnings d) in
    Durable.close d;
    {
      csv = Dse.to_csv points;
      warnings;
      tasks_run = Engine.Stats.tasks_run st;
      cache_hits = Engine.Stats.cache_hits st;
      store_quarantined = Engine.Stats.store_quarantined st;
    }
  in
  let one = resume 1 and four = resume 4 in
  Alcotest.(check string) "CSV at jobs 1 and 4" one.csv four.csv;
  Alcotest.(check (list string)) "warnings at jobs 1 and 4" one.warnings
    four.warnings;
  Alcotest.(check int) "tasks_run at jobs 1 and 4" one.tasks_run
    four.tasks_run;
  Alcotest.(check int) "cache_hits at jobs 1 and 4" one.cache_hits
    four.cache_hits;
  Alcotest.(check int) "store_quarantined at jobs 1 and 4"
    one.store_quarantined four.store_quarantined;
  one

(* A record whose payload [forgery] rewrote must be quarantined for
   [reason] and recomputed, identically at any [~jobs]. *)
let check_payload_forgery_recomputed ~reason forgery () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.to_csv (Dse.sweep ~fb_list app clustering) in
  forge_one_record ~path w (forgery w);
  let o = resume_at_jobs_1_and_4 ~path (Store_frames.read_file path) w in
  Alcotest.(check string) "recovered run byte-identical" reference o.csv;
  Alcotest.(check int) "exactly the forged point is recomputed" 1 o.tasks_run;
  Alcotest.(check int) "stats report the quarantine" 1 o.store_quarantined;
  Alcotest.(check bool)
    ("the quarantine is a warning that " ^ reason)
    true
    (List.exists
       (fun w -> contains w "STORE_CORRUPT" && contains w reason)
       o.warnings)

(* The same, for a record holding a well-formed but forged point. *)
let check_forgery_recomputed ~reason forgery =
  check_payload_forgery_recomputed ~reason (fun w records ->
      let key, p = forgery w records in
      (key, Durable.encode p))

let first = function
  | r :: _ -> r
  | [] -> Alcotest.fail "no feasible record to forge"

let machine (p : Dse.point) =
  Morphosys.Config.make ~fb_set_size:p.Dse.fb_set_size
    ~cm_capacity:p.Dse.cm_capacity ~dma_setup_cycles:p.Dse.dma_setup_cycles ()

(* Another in-bound RF, with the chosen RF's counts: re-running the
   scheduler picks the stored RF, not this one. *)
let test_forged_in_bound_rf =
  check_forgery_recomputed ~reason:"does not simulate to its stored point"
    (fun _ records ->
      let key, p =
        first
          (List.filter
             (fun (_, (p : Dse.point)) ->
               p.Dse.scheduler = "cds" && Option.get p.Dse.rf > 1)
             records)
      in
      let stored = Option.get p.Dse.rf in
      let rf = stored - 1 in
      Alcotest.(check bool) "1 <= rf < stored rf" true (1 <= rf && rf < stored);
      (key, { p with Dse.rf = Some rf }))

let test_forged_rf_beyond_bound =
  check_forgery_recomputed ~reason:"does not simulate to its stored point"
    (fun (app, _) records ->
      let key, p = first records in
      let beyond = app.Kernel_ir.Application.iterations + 1 in
      (key, { p with Dse.rf = Some beyond }))

let test_forged_no_rf =
  check_forgery_recomputed ~reason:"does not simulate to its stored point"
    (fun _ records ->
      let key, p = first records in
      (key, { p with Dse.rf = None }))

(* The stored cycle count is off by one. *)
let test_forged_point =
  check_forgery_recomputed ~reason:"does not simulate to its stored point"
    (fun _ records ->
      let key, p = first records in
      (key, { p with Dse.total_cycles = Option.map succ p.Dse.total_cycles }))

(* The DS point of the same axes, stored under the CDS key. *)
let test_forged_other_scheduler =
  check_forgery_recomputed ~reason:"does not simulate to its stored point"
    (fun _ records ->
      let key, p =
        first
          (List.filter
             (fun (_, (p : Dse.point)) -> p.Dse.scheduler = "cds")
             records)
      in
      let _, ds =
        first
          (List.filter
             (fun (_, (q : Dse.point)) ->
               q.Dse.scheduler = "ds" && q.Dse.fb_set_size = p.Dse.fb_set_size
               && q.Dse.cm_capacity = p.Dse.cm_capacity
               && q.Dse.dma_setup_cycles = p.Dse.dma_setup_cycles)
             records)
      in
      (key, ds))

(* A record whose checksum passes but which holds another value's
   marshalled bytes (a 200-byte string) is not a point: it is quarantined
   and recomputed, never read as one. *)
let test_forged_marshalled_string =
  check_payload_forgery_recomputed
    ~reason:"does not simulate to its stored point"
    (fun _ records ->
      let key, _ = first records in
      (key, Marshal.to_string (String.make 200 'x') []))

(* A record holds the point alone: the 72-point MPEG grid's store stays
   within 1 KB per point, so a schedule cannot creep back into it. *)
let test_store_bytes_per_point () =
  let app, clustering = mpeg () in
  let fb_list = [ 512; 1024; 1536; 2048; 3072; 4096 ]
  and cm_list = [ 1024; 2048 ]
  and setup_list = [ 0; 16 ] in
  with_path @@ fun path ->
  match Durable.open_ ~path ~cm_list ~setup_list ~fb_list app clustering with
  | Error d -> Alcotest.failf "Durable.open_ failed: %s" (Diag.render d)
  | Ok d ->
    let points =
      Dse.sweep ~store:d ~cm_list ~setup_list ~fb_list app clustering
    in
    let completed = Durable.completed d in
    Durable.close d;
    Alcotest.(check int) "72 points swept" 72 (List.length points);
    Alcotest.(check int) "72 points on disk" 72 completed;
    Alcotest.(check bool) "the grid has infeasible points" true
      (List.exists (fun (p : Dse.point) -> not p.Dse.feasible) points);
    Alcotest.(check bool) "every payload is one line" true
      (List.for_all
         (fun p -> not (String.contains (Durable.encode p) '\n'))
         points);
    let per_point = file_size path / completed in
    if per_point > 1024 then
      Alcotest.failf "%d bytes per point; at most 1024 expected" per_point

(* A store written by the marshalled-point payload (schema 3) is refused
   on resume rather than misread. *)
let test_schema_3_store_refused () =
  let app, clustering = mpeg () in
  Alcotest.(check int) "payload schema" 4 Durable.schema_version;
  with_path @@ fun path ->
  (match Engine.Store.open_ ~schema:3 path with
  | Error d -> Alcotest.failf "schema-3 store: %s" (Diag.render d)
  | Ok store ->
    Engine.Store.append store ~key:"@sweep-identity" ~payload:"old";
    Engine.Store.close store);
  (match Durable.open_ ~resume:true ~path ~fb_list app clustering with
  | Ok _ -> Alcotest.fail "a schema-3 store must be refused"
  | Error diag ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (diag.Diag.code = Diag.Sweep_mismatch);
    Alcotest.(check bool) "names the schema" true
      (contains (Diag.render diag) "schema version 3"))

let test_torn_tail_agrees_across_jobs () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.to_csv (Dse.sweep ~fb_list app clustering) in
  let d = open_exn ~path w in
  ignore (Dse.sweep ~store:d ~fb_list app clustering);
  Durable.close d;
  let pristine = Store_frames.read_file path in
  let torn = String.sub pristine 0 (String.length pristine - 13) in
  let o = resume_at_jobs_1_and_4 ~path torn w in
  Alcotest.(check string) "recovered run byte-identical" reference o.csv;
  Alcotest.(check int) "exactly the torn point is recomputed" 1 o.tasks_run

let test_identity_guards () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let d = open_exn ~path w in
  ignore (Dse.sweep ~store:d ~fb_list app clustering);
  (* handing the sweep a store opened for different axes is a programmer
     error, caught before any result could be mixed in *)
  (try
     ignore (Dse.sweep ~store:d ~fb_list:[ 512 ] app clustering);
     Alcotest.fail "axes mismatch must raise"
   with Invalid_argument msg ->
     Alcotest.(check bool) "names the mismatch" true
       (contains msg "different sweep"));
  Durable.close d;
  (* resuming with different axes is refused with a structured diag *)
  (match
     Durable.open_ ~resume:true ~path ~fb_list:[ 512 ] app clustering
   with
  | Ok _ -> Alcotest.fail "axes mismatch must refuse to resume"
  | Error diag ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (diag.Diag.code = Diag.Sweep_mismatch));
  (* ... and so is resuming with a different clustering *)
  (match
     Durable.open_ ~resume:true ~path ~fb_list app
       (Kernel_ir.Cluster.singleton_per_kernel app)
   with
  | Ok _ -> Alcotest.fail "clustering mismatch must refuse to resume"
  | Error diag ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (diag.Diag.code = Diag.Sweep_mismatch));
  (* overwriting an existing store without --resume is refused *)
  match Durable.open_ ~path ~fb_list app clustering with
  | Ok _ -> Alcotest.fail "existing store must require resume"
  | Error diag ->
    Alcotest.(check bool) "SWEEP_MISMATCH" true
      (diag.Diag.code = Diag.Sweep_mismatch);
    Alcotest.(check bool) "points at --resume" true
      (contains (Diag.render diag) "--resume")

(* -- the sweep identity is record 0 of the store ------------------------ *)

let inspect path =
  match Durable.inspect path with
  | Ok v -> v
  | Error d -> Alcotest.failf "inspect: %s" (Diag.render d)

let first_payload path =
  match Engine.Store.contents path with
  | Ok ((_, payload) :: _) -> payload
  | Ok [] -> Alcotest.fail "empty store"
  | Error d -> Alcotest.failf "contents: %s" (Diag.render d)

let resume_stats ~path ((app, clustering) as w) =
  let d = open_exn ~resume:true ~path w in
  let st = Engine.Stats.create () in
  let points = Dse.sweep ~jobs:1 ~store:d ~stats:st ~fb_list app clustering in
  Durable.close d;
  (Dse.to_csv points, st)

(* A replay task felled by an injected pool fault is transient: its point
   comes back FAULT_INJECTED, and neither the store nor its warnings
   change, so the next resume replays everything. *)
let test_felled_replays_change_nothing () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.to_csv (Dse.sweep ~fb_list app clustering) in
  ignore (resume_stats ~path w);
  let size = file_size path in
  let d = open_exn ~resume:true ~path w in
  let st = Engine.Stats.create () in
  let felled =
    Engine.Faults.with_plan
      (Engine.Faults.plan ~rate:1.0 ~seed:5 ())
      (fun () -> Dse.sweep ~jobs:2 ~store:d ~stats:st ~fb_list app clustering)
  in
  Alcotest.(check bool) "every felled replay is FAULT_INJECTED" true
    (List.for_all
       (fun (p : Dse.point) ->
         match p.Dse.diag with
         | Some { Diag.code = Diag.Fault_injected; _ } -> true
         | _ -> false)
       felled);
  Alcotest.(check int) "nothing is recomputed" 0 (Engine.Stats.tasks_run st);
  Alcotest.(check int) "nothing is quarantined" 0
    (Engine.Stats.store_quarantined st);
  Alcotest.(check int) "no warnings" 0 (List.length (Durable.warnings d));
  Durable.close d;
  Alcotest.(check int) "nothing is persisted" size (file_size path);
  let csv, st = resume_stats ~path w in
  Alcotest.(check string) "fault-free resume byte-identical" reference csv;
  Alcotest.(check int) "fault-free resume replays every point" 0
    (Engine.Stats.tasks_run st)

let test_identity_is_record_zero () =
  let w = mpeg () in
  with_path @@ fun path ->
  let d = open_exn ~path w in
  let identity = Durable.identity d in
  Alcotest.(check int) "a fresh store holds no points" 0 (Durable.completed d);
  Durable.close d;
  Alcotest.(check string) "record 0 is the identity" identity
    (first_payload path);
  Alcotest.(check (pair (option string) int)) "inspect reads it back"
    (Some identity, 0) (inspect path);
  ignore (resume_stats ~path w);
  (* a matching reopen keeps every point and appends nothing *)
  let size = file_size path in
  let d = open_exn ~resume:true ~path w in
  Alcotest.(check int) "matching reopen keeps every point" n_points
    (Durable.completed d);
  Durable.close d;
  Alcotest.(check int) "reopening does not re-claim" size (file_size path);
  Alcotest.(check string) "identity still first" identity (first_payload path);
  Alcotest.(check (pair (option string) int)) "inspect counts the points"
    (Some identity, n_points) (inspect path);
  Alcotest.(check bool) "one file: no sidecar" false
    (Sys.file_exists (path ^ ".journal"))

let test_torn_identity_is_reclaimed () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.to_csv (Dse.sweep ~fb_list app clustering) in
  let d = open_exn ~path w in
  let identity = Durable.identity d in
  Durable.close d;
  let identity_end = file_size path in
  ignore (resume_stats ~path w);
  (* tear record 0: every point after it goes with it *)
  Unix.truncate path (identity_end - 1);
  Alcotest.(check (pair (option string) int)) "the store is unclaimed"
    (None, 0) (inspect path);
  let d = open_exn ~resume:true ~path w in
  Alcotest.(check bool) "the quarantine is reported" true
    (List.exists
       (fun (w : Diag.t) -> w.Diag.code = Diag.Store_corrupt)
       (Durable.warnings d));
  Alcotest.(check (pair (option string) int)) "--resume claims it again"
    (Some identity, 0) (inspect path);
  Durable.close d;
  let csv, st = resume_stats ~path w in
  Alcotest.(check string) "recovered run byte-identical" reference csv;
  Alcotest.(check int) "every point is recomputed" n_points
    (Engine.Stats.tasks_run st);
  Alcotest.(check (pair (option string) int)) "and persisted again"
    (Some identity, n_points) (inspect path)

let test_gc_keeps_identity_first () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.to_csv (Dse.sweep ~fb_list app clustering) in
  let d = open_exn ~path w in
  let identity = Durable.identity d in
  ignore (Dse.sweep ~store:d ~fb_list app clustering);
  Durable.close d;
  (* tear the last point so that gc has a tail to drop *)
  Unix.truncate path (file_size path - 13);
  (match Engine.Store.gc path with
  | Error d -> Alcotest.failf "gc: %s" (Diag.render d)
  | Ok g ->
    Alcotest.(check int) "gc keeps the identity and the intact points"
      n_points g.Engine.Store.gc_kept);
  Alcotest.(check string) "identity still record 0" identity
    (first_payload path);
  let csv, st = resume_stats ~path w in
  Alcotest.(check string) "resume after gc byte-identical" reference csv;
  Alcotest.(check int) "only the torn point runs" 1
    (Engine.Stats.tasks_run st);
  (* gc of the repaired store, then a resume that replays every point *)
  (match Engine.Store.gc path with
  | Error d -> Alcotest.failf "gc: %s" (Diag.render d)
  | Ok g ->
    Alcotest.(check int) "one record per point plus the identity"
      (n_points + 1) g.Engine.Store.gc_kept);
  Alcotest.(check string) "identity first after the second gc" identity
    (first_payload path);
  let csv, st = resume_stats ~path w in
  Alcotest.(check string) "resume after gc byte-identical" reference csv;
  Alcotest.(check int) "every point replays" 0 (Engine.Stats.tasks_run st);
  Alcotest.(check int) "every point served from the store" n_points
    (Engine.Stats.cache_hits st)

(* Truncate the durable store one byte before, at and one byte after every
   record boundary: the resumed CSV never changes, and exactly the points
   in the damaged suffix are recomputed — all of them when the cut tears
   the identity record. *)
let test_truncate_around_every_boundary () =
  let ((app, clustering) as w) = mpeg () in
  with_path @@ fun path ->
  let reference = Dse.to_csv (Dse.sweep ~fb_list app clustering) in
  let d = open_exn ~path w in
  ignore (Dse.sweep ~jobs:1 ~store:d ~fb_list app clustering);
  Durable.close d;
  let pristine = Store_frames.read_file path in
  let bounds = Store_frames.bounds pristine in
  let header_len = Lazy.force Store_frames.header_len in
  Alcotest.(check int) "identity plus one record per point" (n_points + 2)
    (Array.length bounds);
  Array.iter
    (fun b ->
      List.iter
        (fun cut ->
          if cut <= String.length pristine then begin
            let what = Printf.sprintf "cut at %d" cut in
            Store_frames.write_file path (String.sub pristine 0 cut);
            if Sys.file_exists (path ^ ".quarantine") then
              Sys.remove (path ^ ".quarantine");
            if cut < header_len then (
              match Durable.open_ ~resume:true ~path ~fb_list app clustering with
              | Ok _ -> Alcotest.failf "%s: a torn header must be refused" what
              | Error diag ->
                Alcotest.(check bool) (what ^ ": STORE_CORRUPT") true
                  (diag.Diag.code = Diag.Store_corrupt))
            else begin
              (* record 0 is the identity; records 1.. are the points *)
              let intact_points =
                max 0 (Store_frames.records_before bounds cut - 1)
              in
              let csv, st = resume_stats ~path w in
              Alcotest.(check string) (what ^ ": CSV byte-identical")
                reference csv;
              Alcotest.(check int) (what ^ ": damaged suffix recomputed")
                (n_points - intact_points)
                (Engine.Stats.tasks_run st)
            end
          end)
        [ b - 1; b; b + 1 ])
    bounds

(* A DS record moved to RF - 1 together with exactly the cycles and words
   the RF - 1 schedule simulates to: a valid schedule and true counts, but
   not the RF the search picks. *)
let test_forged_rf_with_its_counts =
  check_forgery_recomputed ~reason:"does not simulate to its stored point"
    (fun (app, clustering) records ->
      let key, p =
        first
          (List.filter
             (fun (_, (p : Dse.point)) ->
               p.Dse.scheduler = "ds" && Option.get p.Dse.rf > 1)
             records)
      in
      let rf = Option.get p.Dse.rf - 1 in
      let config = machine p in
      let analysis = Kernel_ir.Analysis.make app clustering in
      let ctx_plan =
        match Sched.Context_scheduler.plan_of_analysis config analysis with
        | Ok plan -> plan
        | Error d -> Alcotest.failf "context plan: %s" (Diag.render d)
      in
      let c =
        Msim.Executor.cost config
          (Sched.Step_builder.build config app clustering ~rf ~ctx_plan
             ~generators:(Sched.Xfer_gen.plain_selectors_ctx analysis)
             ~scheduler:"ds")
      in
      ( key,
        { p with
          Dse.rf = Some rf;
          total_cycles = Some c.cycles;
          data_words = Some c.data_words;
          context_words = Some c.context_words } ))

(* A feasible CDS record rewritten as infeasible, with its own axes and a
   made-up diagnostic: the scheduler is feasible there, so it is not what
   the sweep computes. *)
let test_forged_infeasible =
  check_forgery_recomputed ~reason:"does not simulate to its stored point"
    (fun _ records ->
      let key, p =
        first
          (List.filter
             (fun (_, (p : Dse.point)) -> p.Dse.scheduler = "cds")
             records)
      in
      ( key,
        { p with
          Dse.feasible = false;
          rf = None;
          total_cycles = None;
          data_words = None;
          context_words = None;
          diag =
            Some
              (Diag.v ~scheduler:"cds" Diag.No_feasible_rf
                 "no RF fits the FB set") } ))

(* A stored payload with one byte changed (first, middle or last), one cut
   or one appended is no longer the encoding of the point the sweep
   computes: each mutant is quarantined and recomputed. *)
let test_payload_mutants () =
  let flip s i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
  in
  List.iter
    (fun mutate ->
      check_payload_forgery_recomputed
        ~reason:"does not simulate to its stored point"
        (fun _ records ->
          let key, p = first records in
          let e = Durable.encode p in
          let m = mutate e in
          Alcotest.(check bool) "the mutant differs" false (String.equal m e);
          (key, m))
        ())
    [
      (fun e -> flip e 0);
      (fun e -> flip e (String.length e / 2));
      (fun e -> flip e (String.length e - 1));
      (fun e -> String.sub e 0 (String.length e - 1));
      (fun e -> e ^ "0");
    ]

let tests =
  ( "dse_resume",
    [
      Alcotest.test_case "durable sweep replays byte-identically" `Quick
        test_durable_roundtrip;
      Alcotest.test_case "crash mid-sweep, resume, zero re-work" `Quick
        test_crash_resume;
      Alcotest.test_case "felled points not persisted" `Quick
        test_injected_faults_not_persisted;
      Alcotest.test_case "torn tail recomputes exactly one point" `Quick
        test_torn_tail_recomputes_one;
      Alcotest.test_case "forged in-bound RF is quarantined" `Quick
        test_forged_in_bound_rf;
      Alcotest.test_case "forged RF beyond the bound is quarantined" `Quick
        test_forged_rf_beyond_bound;
      Alcotest.test_case "feasible point without an RF is quarantined" `Quick
        test_forged_no_rf;
      Alcotest.test_case "forged stored point is quarantined" `Quick
        test_forged_point;
      Alcotest.test_case "another scheduler's point is quarantined" `Quick
        test_forged_other_scheduler;
      Alcotest.test_case "store holds at most 1 KB per point" `Quick
        test_store_bytes_per_point;
      Alcotest.test_case "forged marshalled string is quarantined" `Quick
        test_forged_marshalled_string;
      Alcotest.test_case "schema-3 store is refused on resume" `Quick
        test_schema_3_store_refused;
      Alcotest.test_case "torn-tail resume agrees at jobs 1 and 4" `Quick
        test_torn_tail_agrees_across_jobs;
      Alcotest.test_case "felled replays persist and quarantine nothing"
        `Quick test_felled_replays_change_nothing;
      Alcotest.test_case "identity guards every resume path" `Quick
        test_identity_guards;
      Alcotest.test_case "identity is record 0; reopen keeps points" `Quick
        test_identity_is_record_zero;
      Alcotest.test_case "torn identity: resume reclaims, recomputes" `Quick
        test_torn_identity_is_reclaimed;
      Alcotest.test_case "gc keeps identity first; resume replays" `Quick
        test_gc_keeps_identity_first;
      Alcotest.test_case "truncation around every record boundary" `Quick
        test_truncate_around_every_boundary;
      Alcotest.test_case "forged RF with that RF's counts is quarantined"
        `Quick test_forged_rf_with_its_counts;
      Alcotest.test_case "forged infeasible record is quarantined" `Quick
        test_forged_infeasible;
      Alcotest.test_case "byte-level payload mutants are quarantined" `Quick
        test_payload_mutants;
    ] )
